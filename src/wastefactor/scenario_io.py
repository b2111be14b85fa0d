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
from typing import Callable, Iterable

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
    BandProfile,
    LinkScenario,
    NetworkScenario,
    TerminalProfile,
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
    "as_network",
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

# Unit tables per kind, ordered largest first; serialization picks the
# first unit that reproduces the stored float exactly.
_LINEAR_UNITS: dict[str, tuple[tuple[str, float], ...]] = {
    "frequency": (("GHz", 1e9), ("MHz", 1e6), ("kHz", 1e3), ("Hz", 1.0)),
    "power": (("W", 1.0), ("mW", 1e-3)),
    "distance": (("m", 1.0), ("km", 1e3)),
    "area": (("m2", 1.0), ("cm2", 1e-4)),
    # Converter density is quoted per GHz of bandwidth; stored as W/Hz.
    # The explicit W/Hz form exists so any float state serializes exactly.
    "power_per_ghz": (("W", 1e-9), ("mW", 1e-12), ("W/Hz", 1.0)),
}
# Units read but never written: "1 km2" is shorter than "1e+06 m2", so as a
# table entry km2 would change every serialized network scenario.
_INPUT_ONLY_UNITS: dict[str, tuple[tuple[str, float], ...]] = {"area": (("km2", 1e6),)}
_DB_UNITS: dict[str, tuple[tuple[str, float], ...]] = {
    "db": (("dB", 0.0),),
    "dbm": (("dBm", 0.0), ("dBW", 30.0)),
    "dbi": (("dBi", 0.0),),
}


def _parse_number(line: int, text: str, source: str) -> tuple[float, str | None]:
    match = _QUANTITY_RE.match(text.strip())
    if match is None:
        raise ScenarioParseError(line, f"malformed quantity {text!r}", source)
    try:
        value = float(match.group(1))
    except ValueError:
        raise ScenarioParseError(line, f"malformed number in {text!r}", source) from None
    return value, match.group(2)


def parse_quantity(line: int, text: str, kind: str, source: str = "line") -> float:
    """Parse one unit-carrying value to its base unit (Hz, W, m, m2, dB*);
    errors name `source line`, as in "line 3" or "override 1"."""
    value, unit = _parse_number(line, text, source)
    if kind == "bare":
        if unit is not None:
            raise ScenarioParseError(
                line, f"dimensionless value must not carry a unit, got {text!r}", source
            )
        return value
    if kind == "fraction":
        if unit == "%":
            return value / 100.0
        if unit is None:
            return value
        raise ScenarioParseError(line, f"expected a bare fraction or %, got {text!r}", source)
    if kind in _LINEAR_UNITS:
        table = _LINEAR_UNITS[kind] + _INPUT_ONLY_UNITS.get(kind, ())
        names = "/".join(u for u, _ in table)
        if unit is None:
            raise ScenarioParseError(line, f"{text!r} needs a unit ({names})", source)
        for name, scale in table:
            if unit == name:
                return value * scale
        raise ScenarioParseError(line, f"unit {unit!r} is not valid here; expected {names}", source)
    if kind in _DB_UNITS:
        table = _DB_UNITS[kind]
        names = "/".join(u for u, _ in table)
        if unit is None:
            raise ScenarioParseError(line, f"{text!r} needs a unit ({names})", source)
        for name, offset in table:
            if unit == name:
                return value + offset
        raise ScenarioParseError(line, f"unit {unit!r} is not valid here; expected {names}", source)
    raise ValueError(f"unknown quantity kind {kind!r}")


def _shortest_exact(scaled: float, scale: float, value: float) -> str | None:
    """Shortest decimal string for scaled such that parsing it and scaling
    reproduces value bit-exactly; None if no precision up to repr manages."""
    best: str | None = None
    for digits in range(1, 18):
        text = f"{scaled:.{digits}g}"
        if float(text) * scale == value and (best is None or len(text) < len(best)):
            best = text
    return best


def _format_quantity(value: float, kind: str) -> str:
    if kind in ("bare", "fraction"):
        return _shortest_exact(value, 1.0, value) or repr(value)
    if kind in _LINEAR_UNITS:
        table = _LINEAR_UNITS[kind]
        best: tuple[str, str] | None = None
        for name, scale in table:
            text = _shortest_exact(value / scale, scale, value)
            if text is not None and (best is None or len(text) < len(best[0])):
                best = (text, name)
        if best is not None:
            return f"{best[0]} {best[1]}"
        # scale 1.0 units always round-trip, so only tables without a base
        # unit can reach this; emit the last unit at full precision.
        name, scale = table[-1]
        return f"{value / scale!r} {name}"
    if kind in _DB_UNITS:
        # The first unit of every dB table has offset 0, so no arithmetic.
        name, _ = _DB_UNITS[kind][0]
        return f"{_shortest_exact(value, 1.0, value) or repr(value)} {name}"
    raise ValueError(f"unknown quantity kind {kind!r}")


def _parse_int(line: int, text: str, key: str, source: str = "line") -> int:
    value = parse_quantity(line, text, "bare", source)
    if value != int(value):
        raise ScenarioParseError(line, f"{key} must be an integer, got {text!r}", source)
    return int(value)


def _parse_bool(line: int, text: str, key: str, source: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("on", "true", "yes", "1"):
        return True
    if lowered in ("off", "false", "no", "0"):
        return False
    raise ScenarioParseError(line, f"{key} must be on/off, got {text!r}", source)


def _parse_word(
    line: int, text: str, key: str, allowed: tuple[str, ...] | None = None, source: str = "line"
) -> str:
    word = text.strip().strip("\"'")
    if allowed is not None and word not in allowed:
        raise ScenarioParseError(
            line, f"{key} must be one of {'/'.join(allowed)}, got {word!r}", source
        )
    return word


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
_LINK_KEYS: dict[str, tuple[str, str]] = {
    "distance": ("distance", "distance_m"),
    "environment": ("word:los/nlos", "environment"),
    "direction": ("word:uplink/downlink", "direction"),
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


def _parse_value(line: int, text: str, kind: str, key: str, source: str):
    if kind == "int":
        return _parse_int(line, text, key, source)
    if kind == "bool":
        return _parse_bool(line, text, key, source)
    if kind == "word":
        return _parse_word(line, text, key, source=source)
    if kind.startswith("word:"):
        return _parse_word(line, text, key, tuple(kind[5:].split("/")), source)
    return parse_quantity(line, text, kind, source)


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
) -> LinkScenario | NetworkScenario:
    """Apply (section, {key: (position, raw value)}) pairs in the order given;
    errors name `source position`, the line of a file or the index of an
    override."""
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
            updates[field_name] = _parse_value(position, raw, value_kind, key, source)
        if not updates:
            continue
        target = scenario if attr is None else getattr(scenario, attr)
        try:
            target = replace(target, **updates)
        except ValueError as exc:
            first = min(position for position, _ in entries.values())
            raise ScenarioParseError(first, f"invalid [{section}] values: {exc}", source) from exc
        scenario = target if attr is None else replace(scenario, **{attr: target})
    return scenario


def as_network(scenario: LinkScenario | NetworkScenario) -> NetworkScenario:
    """A network scenario as is; a link scenario's band and terminals in a
    network of the default 65 m cells."""
    if isinstance(scenario, NetworkScenario):
        return scenario
    return NetworkScenario(band=scenario.band, bs=scenario.bs, ue=scenario.ue, cell_radius_m=65.0)


def parse_scenario(text: str) -> LinkScenario | NetworkScenario:
    """Parse a scenario document; [network] selects a network scenario."""
    sections = _collect_sections(text)
    if "link" in sections and "network" in sections:
        lineno = min(v for v, _ in sections["network"].values()) if sections["network"] else 1
        raise ScenarioParseError(lineno, "a scenario cannot have both [link] and [network]")

    is_network = "network" in sections
    preset_name = "subthz-140" if is_network else "mmwave-28"
    if "preset" in sections.get("band", {}):
        lineno, raw = sections["band"].pop("preset")
        preset_name = _parse_word(lineno, raw, "preset")
        try:
            preset_scenario(preset_name)
        except ValueError as exc:
            raise ScenarioParseError(lineno, str(exc)) from exc
    base = preset_scenario(preset_name)
    if is_network:
        base = as_network(base)
    return _apply_sections(
        base, ((name, sections[name]) for name in _SECTIONS if name in sections), "line"
    )


def _serialize_section(name: str, obj, table: dict[str, tuple[str, str]]) -> str:
    lines = [f"[{name}]"]
    for key, (kind, field_name) in table.items():
        value = getattr(obj, field_name)
        if kind == "bool":
            lines.append(f"{key} = {'on' if value else 'off'}")
        elif kind == "int" or kind.startswith("word"):
            lines.append(f"{key} = {value}")
        else:
            lines.append(f"{key} = {_format_quantity(value, kind)}")
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
) -> LinkScenario | NetworkScenario:
    """Apply `section.key=value` override strings to a parsed scenario.

    Values follow the scenario-file syntax, units included, so an override
    is exactly one file line spelled inline: `band.bandwidth=1 GHz`.
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
    # Sections apply in the order each was first given, not file order.
    return _apply_sections(scenario, grouped.items(), "override")


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

_CHAIN_FORMS: dict[str, tuple[set[str], ...]] = {
    "passive": ({"loss"},),
    "amp": ({"gain", "eta"},),
    "lna": ({"gain", "fom", "count"},),
    "antenna": ({"gain"}, {"area", "eff"}),
    "channel": ({"pl"}, {"ci", "f", "d", "n"}),
}

def _chain_tokens(line: int, tokens: list[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise ScenarioParseError(line, f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
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
    parsed: list[tuple[int, str, str, dict[str, str]]] = []
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
        # `ci` appears as a bare selector token, not key=value.
        fields = _chain_tokens(
            lineno, [t for t in raw_fields if t != "ci"]
        )
        if kind == "channel" and "ci" in tokens:
            fields["ci"] = "ci"
        allowed = _CHAIN_FORMS[kind]
        if not any(set(fields) == form for form in allowed):
            expected = " or ".join("{" + ", ".join(sorted(f)) + "}" for f in allowed)
            raise ScenarioParseError(
                lineno, f"{kind} takes fields {expected}, got {{{', '.join(sorted(fields))}}}"
            )
        if kind == "channel":
            if channel_line is not None:
                raise ScenarioParseError(lineno, "duplicate channel line")
            channel_line = lineno
            if "ci" in fields:
                channel_freq = parse_quantity(lineno, fields["f"], "frequency")
        parsed.append((lineno, kind, name, fields))

    components: list[Component] = []
    for lineno, kind, name, fields in parsed:
        try:
            components.append(
                _build_chain_component(lineno, kind, name, fields, channel_freq)
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
    channel_freq: float | None,
) -> Component:
    value: Callable[[str, str], float] = lambda key, k: parse_quantity(lineno, fields[key], k)
    if kind == "passive":
        loss_db = value("loss", "db")
        if loss_db < 0.0:
            raise ScenarioParseError(lineno, f"passive loss must be >= 0 dB, got {loss_db}")
        return make_passive(name, db_to_linear(loss_db))
    if kind == "amp":
        return make_amplifier(name, db_to_linear(value("gain", "db")), value("eta", "fraction"))
    if kind == "lna":
        gain = db_to_linear(value("gain", "db"))
        fom = value("fom", "bare")
        count = _parse_int(lineno, fields["count"], "count")
        if fom <= 0.0 or count < 1:
            raise ScenarioParseError(lineno, "lna needs fom > 0 and count >= 1")
        return make_fixed_overhead(name, gain, count * gain / fom * 1e-3)
    if kind == "antenna":
        if "gain" in fields:
            return make_directive(name, db_to_linear(parse_quantity(lineno, fields["gain"], "dbi")))
        if channel_freq is None:
            raise ScenarioParseError(
                lineno, "aperture-form antenna needs a `channel ci` line to fix the frequency"
            )
        gain_db = aperture_gain_db(value("area", "area"), channel_freq, value("eff", "fraction"))
        return make_directive(name, db_to_linear(gain_db))
    # channel
    if "pl" in fields:
        pl_db = value("pl", "db")
    else:
        pl_db = ci_path_loss_db(channel_freq, value("d", "distance"), value("n", "bare"))
    if pl_db < 0.0:
        raise ScenarioParseError(lineno, f"channel path loss must be >= 0 dB, got {pl_db}")
    return make_passive(name, db_to_linear(pl_db))
