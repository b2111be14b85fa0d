"""Scenario files and the chain description language.

Scenario files are line-oriented key = value documents with sections
[band], [bs], [ue], and either [link] or [network].  Every physical value
carries an explicit unit suffix; silent unit confusion between dBm, dBW,
mW, and W is the failure mode this format exists to prevent, so bare
numbers are accepted only for genuinely dimensionless quantities.  Unknown
keys and sections are rejected with their line number.

Missing keys fall back to a named preset ("preset = subthz-140" inside
[band]); link scenarios default to mmwave-28 and network scenarios to
subthz-140.  serialize_scenario emits a canonical form whose unit choice is
verified to round-trip the exact float, so parse -> serialize -> parse is a
fixed point.
"""

from __future__ import annotations

import os
import re
from dataclasses import replace
from operator import add, mul, sub, truediv
from typing import Callable, Iterable, Mapping

from .cascade import (
    Cascade,
    Component,
    make_amplifier,
    make_directive,
    make_fixed_overhead,
    make_passive,
)
from .linkbudget import aperture_gain_db, ci_path_loss_db, db_to_linear
from .transceiver import (
    LinkScenario,
    NetworkScenario,
    as_network,
    preset_scenario,
)

__all__ = [
    "ScenarioParseError",
    "parse_scenario",
    "serialize_scenario",
    "parse_chain",
    "apply_overrides",
    "load_scenario_file",
    "resolve_preset",
    "PRESET_DIR_ENV",
]

PRESET_DIR_ENV = "WASTEFACTOR_PRESET_DIR"


class ScenarioParseError(ValueError):
    """Parse failure with the 1-based line (or override index) it came from."""

    def __init__(self, line: int, message: str, source: str = "line") -> None:
        super().__init__(f"{source} {line}: {message}")
        self.line = line
        self.source = source


_QUANTITY_RE = re.compile(r"^([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z%][A-Za-z0-9^/-]*)?$")

# The quantity kinds: (apply, written units, read-only units, error for a
# unit on a kind that takes none).  A unit is (name, k), None naming the bare
# number, and n in it is apply(n, k) in the base unit: Hz, W, m, m2, W/Hz,
# dB, dBm or a bare number.  A product keeps the sign of a zero and a dB sum
# drops it, so "-0 W" is -0.0 and "-0 dBm" is 0.0.  Writing picks the
# shortest text, over the written units (the first on a tie), that reads back
# to the same float; "1 km2" is shorter than "1e+06 m2", so a written km2
# would change every serialized network scenario.
_KINDS: dict[str, tuple[Callable, tuple, tuple, str | None]] = {
    "bare": (truediv, ((None, 1.0),), (), "dimensionless value must not carry a unit"),
    "fraction": (truediv, ((None, 1.0),), (("%", 100.0),), "expected a bare fraction or %"),
    "frequency": (mul, (("GHz", 1e9), ("MHz", 1e6), ("kHz", 1e3), ("Hz", 1.0)), (), None),
    "power": (mul, (("W", 1.0), ("mW", 1e-3)), (), None),
    "distance": (mul, (("m", 1.0), ("km", 1e3)), (), None),
    "area": (mul, (("m2", 1.0), ("cm2", 1e-4)), (("km2", 1e6),), None),
    # Converter density is quoted per GHz of bandwidth; stored as W/Hz.
    # The explicit W/Hz form exists so any float state serializes exactly.
    "power_per_ghz": (mul, (("W", 1e-9), ("mW", 1e-12), ("W/Hz", 1.0)), (), None),
    "db": (add, (("dB", 0.0),), (), None),
    "dbm": (add, (("dBm", 0.0),), (("dBW", 30.0),), None),
    "dbi": (add, (("dBi", 0.0),), (), None),
}
_INVERSE = {truediv: mul, mul: truediv, add: sub}
_TRUE, _FALSE = ("on", "true", "yes", "1"), ("off", "false", "no", "0")


def parse_quantity(
    line: int, text: str, kind: str | tuple[str, ...], source: str = "line", key: str = "value"
):
    """Parse one value: a quantity of a _KINDS kind to its base unit, or an
    "int", a "bool", a "word", or one of a tuple of words.  Errors name
    `source line`, as in "line 3" or "override 1", and the key where the
    kind has no unit to name."""
    if kind == "bool":
        lowered = text.strip().lower()
        if lowered in _TRUE or lowered in _FALSE:
            return lowered in _TRUE
        raise ScenarioParseError(line, f"{key} must be on/off, got {text!r}", source)
    if kind == "word" or isinstance(kind, tuple):
        word = text.strip().strip("\"'")
        if kind != "word" and word not in kind:
            raise ScenarioParseError(
                line, f"{key} must be one of {'/'.join(kind)}, got {word!r}", source
            )
        return word
    match = _QUANTITY_RE.match(text.strip())
    if match is None:
        raise ScenarioParseError(line, f"malformed quantity {text!r}", source)
    try:
        number = float(match.group(1))
    except ValueError:
        raise ScenarioParseError(line, f"malformed number in {text!r}", source) from None
    unit = match.group(2)
    apply, written, read_only, unit_error = _KINDS["bare" if kind == "int" else kind]
    scale = next((k for name, k in written + read_only if name == unit), None)
    if scale is None:
        if unit_error:
            raise ScenarioParseError(line, f"{unit_error}, got {text!r}", source)
        names = "/".join(name for name, _ in written + read_only)
        if unit is None:
            raise ScenarioParseError(line, f"{text!r} needs a unit ({names})", source)
        raise ScenarioParseError(line, f"unit {unit!r} is not valid here; expected {names}", source)
    value = apply(number, scale)
    if kind != "int":
        return value
    if not value.is_integer():
        raise ScenarioParseError(line, f"{key} must be an integer, got {text!r}", source)
    return int(value)


def _format_value(value, kind: str | tuple[str, ...]) -> str:
    """Canonical text of a value; parse_quantity reads it back exactly."""
    if kind == "bool":
        return "on" if value else "off"
    if kind not in _KINDS:
        return f"{value}"
    apply, written, _, _ = _KINDS[kind]
    best: tuple[str, str | None] | None = None
    for name, scale in written:
        scaled = _INVERSE[apply](value, scale)
        for digits in range(1, 18):
            number = f"{scaled:.{digits}g}"
            if apply(float(number), scale) == value and (
                best is None or len(number) < len(best[0])
            ):
                best = (number, name)
    number, name = best
    return number if name is None else f"{number} {name}"


# Section tables: key -> (kind, dataclass field).  "kind" drives both parsing
# and canonical serialization, so the two can never drift apart.
_BAND_KEYS: dict[str, tuple[str, str]] = {
    "label": ("word", "label"),
    "frequency": ("frequency", "carrier_frequency_hz"),
    "bandwidth": ("frequency", "bandwidth_hz"),
    "pa_efficiency": ("fraction", "pa_efficiency"),
    "pa_gain": ("db", "pa_gain_db"),
    "lna_gain": ("db", "lna_gain_db"),
    "lna_fom": ("bare", "lna_fom_per_mw"),
    "mixer_loss": ("db", "mixer_loss_db"),
    "phase_shifter_loss": ("db", "phase_shifter_loss_db"),
    "lo_power": ("dbm", "lo_power_dbm"),
    "converter_power_per_ghz": ("power_per_ghz", "converter_w_per_hz"),
    "noise_figure": ("db", "noise_figure_db"),
}
_TERMINAL_KEYS: dict[str, tuple[str, str]] = {
    "aperture": ("area", "aperture_m2"),
    "antenna_efficiency": ("fraction", "antenna_efficiency"),
    "elements": ("int", "element_count"),
    "cooling_overhead": ("fraction", "cooling_overhead"),
    "screen_power": ("power", "screen_power_w"),
}
_LINK_KEYS: dict[str, tuple[str | tuple[str, ...], str]] = {
    "distance": ("distance", "distance_m"),
    "environment": (("los", "nlos"), "environment"),
    "direction": (("uplink", "downlink"), "direction"),
    "tx_power": ("dbm", "tx_power_dbm"),
    "ple_los": ("bare", "ple_los"),
    "ple_nlos": ("bare", "ple_nlos"),
}
_NETWORK_KEYS: dict[str, tuple[str, str]] = {
    "cell_radius": ("distance", "cell_radius_m"),
    "area": ("area", "area_m2"),
    "arrays_per_bs": ("int", "arrays_per_bs"),
    "ues_per_cell": ("int", "ues_per_cell"),
    "target_snr": ("db", "target_snr_db"),
    "los_d1": ("distance", "los_d1_m"),
    "los_d2": ("distance", "los_d2_m"),
    "ple_los": ("bare", "ple_los"),
    "ple_nlos": ("bare", "ple_nlos"),
    "seed": ("int", "seed"),
    "drops": ("int", "drops"),
    "interference": ("bool", "interference"),
    "wraparound": ("bool", "wraparound"),
    "sidelobe": ("db", "sidelobe_db"),
    "interferer_reach": ("bare", "interferer_reach"),
}

# Section name -> (key table, scenario attribute, or None for the scenario
# itself), in canonical order: the order files are applied and serialized.
# [link] and [network] are the two scenario-level sections; a scenario has
# exactly the one named by _scenario_kind.
_SECTIONS: dict[str, tuple[dict[str, tuple[str, str]], str | None]] = {
    "band": (_BAND_KEYS, "band"),
    "bs": (_TERMINAL_KEYS, "bs"),
    "ue": (_TERMINAL_KEYS, "ue"),
    "link": (_LINK_KEYS, None),
    "network": (_NETWORK_KEYS, None),
}


def _scenario_kind(scenario: LinkScenario | NetworkScenario) -> str:
    return "network" if isinstance(scenario, NetworkScenario) else "link"


def _strip_comment(raw: str) -> str:
    for marker in ("#", ";"):
        pos = raw.find(marker)
        if pos >= 0:
            raw = raw[:pos]
    return raw.strip()


def _collect_sections(text: str) -> dict[str, dict[str, tuple[int, str]]]:
    sections: dict[str, dict[str, tuple[int, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioParseError(lineno, f"malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioParseError(
                    lineno, f"unknown section [{name}]; expected one of {', '.join(_SECTIONS)}"
                )
            if name in sections:
                raise ScenarioParseError(lineno, f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ScenarioParseError(lineno, f"expected 'key = value', got {line!r}")
        if current is None:
            raise ScenarioParseError(lineno, "key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ScenarioParseError(lineno, f"missing value for {key!r}")
        if key in sections[current]:
            raise ScenarioParseError(lineno, f"duplicate key {key!r} in [{current}]")
        sections[current][key] = (lineno, value)
    return sections


def _apply_sections(
    scenario: LinkScenario | NetworkScenario,
    sections: Iterable[tuple[str, dict[str, tuple[int, str]]]],
    source: str,
    fixed: Mapping[str, object] | None = None,
) -> LinkScenario | NetworkScenario:
    """Apply (section, {key: (position, raw value)}) pairs in the order given;
    errors name `source position`, the line of a file or the index of an
    override.  The fixed field values win over the [link] or [network]
    section's and are set in the same replace; a section value they replace
    is still checked, in the scenario built.  If that section is empty, a
    fault of the fixed values propagates as their own ValueError."""
    kind = _scenario_kind(scenario)
    for section, entries in sections:
        table, attr = _SECTIONS[section]
        if attr is None and section != kind:
            first = min(position for position, _ in entries.values())
            raise ScenarioParseError(
                first, f"{section} keys do not apply to a {kind} scenario", source
            )
        updates = {}
        for key, (position, raw) in entries.items():
            if key not in table:
                raise ScenarioParseError(position, f"unknown key {key!r} in [{section}]", source)
            value_kind, field_name = table[key]
            updates[field_name] = parse_quantity(position, raw, value_kind, source, key)
        replaced = {}
        if attr is None and fixed:
            replaced = {name: updates[name] for name in fixed if name in updates}
            updates.update(fixed)
        if not updates:
            continue
        target = scenario if attr is None else getattr(scenario, attr)
        try:
            target = replace(target, **updates)
            if replaced:  # a value that a fixed one replaces must still be valid
                replace(target, **replaced)
        except ValueError as exc:
            if not entries:
                raise
            first = min(position for position, _ in entries.values())
            raise ScenarioParseError(first, f"invalid [{section}] values: {exc}", source) from exc
        scenario = target if attr is None else replace(scenario, **{attr: target})
    return scenario


def parse_scenario(text: str) -> LinkScenario | NetworkScenario:
    """Parse a scenario document; [network] selects a network scenario."""
    sections = _collect_sections(text)
    if "link" in sections and "network" in sections:
        lineno = min(v for v, _ in sections["network"].values()) if sections["network"] else 1
        raise ScenarioParseError(lineno, "a scenario cannot have both [link] and [network]")

    is_network = "network" in sections
    if "preset" in sections.get("band", {}):
        lineno, raw = sections["band"].pop("preset")
        preset_name = parse_quantity(lineno, raw, "word", key="preset")
        try:
            base = preset_scenario(preset_name)
        except ValueError as exc:
            raise ScenarioParseError(lineno, str(exc)) from exc
    else:
        base = preset_scenario("subthz-140" if is_network else "mmwave-28")
    if is_network:
        base = as_network(base)
    return _apply_sections(
        base, ((name, sections[name]) for name in _SECTIONS if name in sections), "line"
    )


def _serialize_section(name: str, obj, table: dict[str, tuple]) -> str:
    lines = [f"[{name}]"]
    for key, (kind, field_name) in table.items():
        lines.append(f"{key} = {_format_value(getattr(obj, field_name), kind)}")
    return "\n".join(lines)


def serialize_scenario(scenario: LinkScenario | NetworkScenario) -> str:
    """Canonical text form; parse(serialize(s)) reconstructs s exactly."""
    kind = _scenario_kind(scenario)
    blocks = [
        _serialize_section(name, scenario if attr is None else getattr(scenario, attr), table)
        for name, (table, attr) in _SECTIONS.items()
        if attr is not None or name == kind
    ]
    return "\n\n".join(blocks) + "\n"


def apply_overrides(
    scenario: LinkScenario | NetworkScenario,
    overrides: Iterable[str],
    fixed: Mapping[str, object] | None = None,
) -> LinkScenario | NetworkScenario:
    """Apply `section.key=value` override strings to a parsed scenario.

    Values follow the scenario-file syntax, units included, so an override
    is exactly one file line spelled inline: `band.bandwidth=1 GHz`.  The
    fixed scenario field values win over the overrides and are set with the
    [link] or [network] ones in one replace, so no scenario holding only
    some of them is checked.
    """
    grouped: dict[str, dict[str, tuple[int, str]]] = {}
    for index, item in enumerate(overrides, start=1):
        head, sep, value = item.partition("=")
        section, dot, key = head.strip().partition(".")
        if not sep or not value.strip() or not dot or not key.strip():
            raise ScenarioParseError(
                index, f"{item!r} must look like section.key=value", source="override"
            )
        section = section.strip()
        if section not in _SECTIONS:
            raise ScenarioParseError(
                index, f"unknown section {section!r} in {item!r}", source="override"
            )
        entries = grouped.setdefault(section, {})
        key = key.strip()
        if key in entries:
            raise ScenarioParseError(
                index, f"duplicate override for {section}.{key}", source="override"
            )
        entries[key] = (index, value.strip())
    if fixed:
        grouped.setdefault(_scenario_kind(scenario), {})
    # Sections apply in the order each was first given, not file order.
    return _apply_sections(scenario, grouped.items(), "override", fixed)


def load_scenario_file(path: str) -> LinkScenario | NetworkScenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def resolve_preset(name: str) -> LinkScenario | NetworkScenario:
    """Preset by name: built-in first, then <name>.scenario in the directory
    named by WASTEFACTOR_PRESET_DIR."""
    try:
        return preset_scenario(name)
    except ValueError:
        pass
    filename = f"{name}.scenario"
    env_dir = os.environ.get(PRESET_DIR_ENV)
    if env_dir:
        candidate = os.path.join(env_dir, filename)
        if os.path.exists(candidate):
            return load_scenario_file(candidate)
    raise ValueError(f"unknown preset {name!r} and no {filename} found")


# --- chain description language ---------------------------------------------

# Component -> its forms, each a field -> kind table; `ci` is a bare selector.
_CHAIN_FORMS: dict[str, tuple[dict[str, str | None], ...]] = {
    "passive": ({"loss": "db"},),
    "amp": ({"gain": "db", "eta": "fraction"},),
    "lna": ({"gain": "db", "fom": "bare", "count": "int"},),
    "antenna": ({"gain": "dbi"}, {"area": "area", "eff": "fraction"}),
    "channel": ({"pl": "db"}, {"ci": None, "f": "frequency", "d": "distance", "n": "bare"}),
}


def _chain_tokens(line: int, tokens: list[str], selector: str | None) -> dict[str, str]:
    """A line's fields by key; the bare selector token, if any, is its own
    key and value."""
    values: dict[str, str] = {}
    for token in tokens:
        if token == selector:
            key = value = token
        elif "=" not in token:
            raise ScenarioParseError(line, f"expected key=value, got {token!r}")
        else:
            key, _, value = token.partition("=")
            if key == selector:
                raise ScenarioParseError(line, f"{selector} takes no value, got {token!r}")
        if key in values:
            raise ScenarioParseError(line, f"duplicate field {key!r}")
        values[key] = value
    return values


def parse_chain(text: str, source_power_w: float = 1.0) -> Cascade:
    """Parse the chain description language into a cascade.

    One component per line, file order = source-to-sink order.  Values carry
    their unit with no intervening space (loss=6dB).  An aperture-form
    antenna needs the carrier frequency, so it requires a `channel ci` line
    somewhere in the same file; at most one channel line is allowed.
    """
    parsed: list[tuple[int, str, str, dict[str, str], dict[str, str | None]]] = []
    channel_line: int | None = None
    channel_freq: float | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind not in _CHAIN_FORMS:
            raise ScenarioParseError(
                lineno, f"unknown component {kind!r}; expected {', '.join(_CHAIN_FORMS)}"
            )
        if kind == "channel":
            name = "channel"
            raw_fields = tokens[1:]
        else:
            if len(tokens) < 2 or "=" in tokens[1]:
                raise ScenarioParseError(lineno, f"{kind} needs a name before its fields")
            name = tokens[1]
            raw_fields = tokens[2:]
        # `ci` is a bare selector token on a channel line, not key=value.
        fields = _chain_tokens(lineno, raw_fields, "ci" if kind == "channel" else None)
        allowed = _CHAIN_FORMS[kind]
        form = next((f for f in allowed if fields.keys() == f.keys()), None)
        if form is None:
            expected = " or ".join("{" + ", ".join(sorted(f)) + "}" for f in allowed)
            raise ScenarioParseError(
                lineno, f"{kind} takes fields {expected}, got {{{', '.join(sorted(fields))}}}"
            )
        if kind == "channel":
            if channel_line is not None:
                raise ScenarioParseError(lineno, "duplicate channel line")
            channel_line = lineno
            if "ci" in fields:
                channel_freq = parse_quantity(lineno, fields["f"], form["f"])
        parsed.append((lineno, kind, name, fields, form))

    components: list[Component] = []
    for lineno, kind, name, fields, form in parsed:
        try:
            components.append(
                _build_chain_component(lineno, kind, name, fields, form, channel_freq)
            )
        except ScenarioParseError:
            raise
        except ValueError as exc:
            raise ScenarioParseError(lineno, str(exc)) from exc
    if not components:
        raise ScenarioParseError(1, "chain has no components")
    return Cascade(components=tuple(components), source_power=source_power_w)


def _build_chain_component(
    lineno: int,
    kind: str,
    name: str,
    fields: dict[str, str],
    form: dict[str, str | None],
    channel_freq: float | None,
) -> Component:
    # Each field is parsed where it is first needed below, so a line's
    # errors come in the order the fields are read.
    field: Callable[[str], float] = lambda key: parse_quantity(
        lineno, fields[key], form[key], key=key
    )
    if kind == "passive":
        loss_db = field("loss")
        if loss_db < 0.0:
            raise ScenarioParseError(lineno, f"passive loss must be >= 0 dB, got {loss_db}")
        return make_passive(name, db_to_linear(loss_db))
    if kind == "amp":
        return make_amplifier(name, db_to_linear(field("gain")), field("eta"))
    if kind == "lna":
        gain = db_to_linear(field("gain"))
        fom = field("fom")
        count = field("count")
        if fom <= 0.0 or count < 1:
            raise ScenarioParseError(lineno, "lna needs fom > 0 and count >= 1")
        return make_fixed_overhead(name, gain, count * gain / fom * 1e-3)
    if kind == "antenna":
        if "gain" in fields:
            return make_directive(name, db_to_linear(field("gain")))
        if channel_freq is None:
            raise ScenarioParseError(
                lineno, "aperture-form antenna needs a `channel ci` line to fix the frequency"
            )
        gain_db = aperture_gain_db(field("area"), channel_freq, field("eff"))
        return make_directive(name, db_to_linear(gain_db))
    # channel
    if "pl" in fields:
        pl_db = field("pl")
    else:
        pl_db = ci_path_loss_db(channel_freq, field("d"), field("n"))
    if pl_db < 0.0:
        raise ScenarioParseError(lineno, f"channel path loss must be >= 0 dB, got {pl_db}")
    return make_passive(name, db_to_linear(pl_db))
