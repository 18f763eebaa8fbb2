"""Audit configuration: rule set, thresholds, severities, bottom-line designation."""

from __future__ import annotations

from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation
from enum import IntEnum
from pathlib import Path

from .model import AddressParseError, parse_a1


class Severity(IntEnum):
    INFO = 1
    WARNING = 2
    ERROR = 3

    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, text: str) -> "Severity":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ConfigError(f"unknown severity {text!r}")


ALL_RULE_IDS = tuple(f"R{n:02d}" for n in range(1, 26))


class ConfigError(ValueError):
    """Bad key, unknown rule id or malformed value in audit configuration."""


@dataclass(frozen=True)
class AuditConfig:
    """Thresholds and switches for the rule engine. Reading order is fixed row-major."""

    enabled_rules: frozenset[str] = frozenset(ALL_RULE_IDS)
    severity_overrides: tuple[tuple[str, Severity], ...] = ()
    long_arc_distance: int = 25
    max_font_sizes: int = 1
    max_colors: int = 4
    all_caps_min_len: int = 4
    constant_allowlist: frozenset[Decimal] = frozenset(
        (Decimal(0), Decimal(1), Decimal(-1)))
    nest_max_len: int = 120
    copy_run_min: int = 3
    blank_ratio_warn: float = 0.5
    width_tolerance: float = 2.0
    min_block_cells: int = 2
    bottom_line_coverage: float = 0.5
    bottom_line: tuple[str, ...] = ()
    flow_exempt: tuple[str, ...] = ()
    solver_functions: frozenset[str] = frozenset(("WB",))

    def __post_init__(self) -> None:
        # the parser upper-cases function names, so the set is matched upper-cased
        object.__setattr__(self, "solver_functions",
                           frozenset(name.upper() for name in self.solver_functions))
        for rule in self.enabled_rules:
            if rule not in ALL_RULE_IDS:
                raise ConfigError(f"unknown rule id {rule!r}")
        for rule, _ in self.severity_overrides:
            if rule not in ALL_RULE_IDS:
                raise ConfigError(f"unknown rule id {rule!r} in severity override")
        for name in ("long_arc_distance", "max_font_sizes", "max_colors",
                     "all_caps_min_len", "nest_max_len", "copy_run_min"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (0.0 < self.blank_ratio_warn <= 1.0):
            raise ConfigError("blank_ratio_warn must be in (0, 1]")
        for entry in self.flow_exempt:
            try:
                parse_a1(entry)
            except AddressParseError:
                raise ConfigError(f"flow_exempt entry {entry!r} is not a cell "
                                  f"address") from None

    def severity_for(self, rule: str, default: Severity) -> Severity:
        """The last override of ``rule``, else ``default``."""
        return dict(self.severity_overrides).get(rule, default)


_INT_KEYS = ("long_arc_distance", "max_font_sizes", "max_colors",
             "all_caps_min_len", "nest_max_len", "copy_run_min",
             "min_block_cells")
_FLOAT_KEYS = ("blank_ratio_warn", "width_tolerance", "bottom_line_coverage")
_LIST_KEYS = ("bottom_line", "flow_exempt")


def parse_rule_list(text: str) -> frozenset[str]:
    rules = frozenset(part.strip().upper() for part in text.split(",") if part.strip())
    for rule in rules:
        if rule not in ALL_RULE_IDS:
            raise ConfigError(f"unknown rule id {rule!r}")
    return rules


def load_config(path: str | Path) -> AuditConfig:
    """Read a flat ``key=value`` file; keys mirror AuditConfig field names.

    Severity overrides use keys like ``severity_R04=info``. Lists are
    comma-separated. A repeated key keeps its last value. Blank lines and
    ``#`` comment lines are ignored.
    """
    values: dict[str, object] = {}
    overrides: list[tuple[str, Severity]] = []
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data[:exc.start].count(b"\n") + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key.startswith("severity_"):
                overrides.append((key[len("severity_"):].upper(),
                                  Severity.from_label(value)))
            elif key == "enabled_rules":
                values[key] = parse_rule_list(value)
            elif key == "constant_allowlist":
                values[key] = frozenset(Decimal(v.strip()) for v in value.split(",")
                                        if v.strip())
            elif key == "solver_functions":
                values[key] = frozenset(v.strip() for v in value.split(",")
                                        if v.strip())
            elif key in _LIST_KEYS:
                values[key] = tuple(v.strip() for v in value.split(",") if v.strip())
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        except (ValueError, InvalidOperation):
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    if overrides:
        values["severity_overrides"] = tuple(overrides)
    try:
        return AuditConfig(**values)  # type: ignore[arg-type]
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_config(config: AuditConfig, path: str | Path) -> None:
    """Write the configuration back out; load_config(save_config(c)) == c."""
    lines = []
    defaults = AuditConfig()
    for f in fields(config):
        value = getattr(config, f.name)
        if value == getattr(defaults, f.name):
            continue
        if f.name == "severity_overrides":
            for rule, sev in value:
                lines.append(f"severity_{rule}={sev.label()}")
        elif f.name in ("enabled_rules", "solver_functions"):
            lines.append(f"{f.name}={','.join(sorted(value))}")
        elif f.name == "constant_allowlist":
            lines.append(f"{f.name}={','.join(str(v) for v in sorted(value))}")
        elif f.name in _LIST_KEYS:
            lines.append(f"{f.name}={','.join(value)}")
        else:
            lines.append(f"{f.name}={value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
