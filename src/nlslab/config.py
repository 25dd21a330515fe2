"""Experiment configuration, manifests, and deterministic CSV output.

Config files are flat UTF-8 ``key = value`` text with dotted namespaces and
'#' comments; a JSON object with the same flat keys is accepted
interchangeably.  Every command validates against its schema: unknown keys
are rejected, every tunable is echoed into the run manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np

from . import __version__


class ConfigError(ValueError):
    pass


def _coerce(raw: str):
    text = raw.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict:
    """Flat key=value parser; a leading '{' switches to the JSON mirror."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("JSON config must be a flat object")
        return dict(data)
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = _coerce(value)
    return out


def load_config(path) -> dict:
    return parse_config_text(Path(path).read_text())


def _as_list(value, kind):
    if isinstance(value, (list, tuple)):
        return [kind(v) for v in value]
    if isinstance(value, str):
        return [kind(v) for v in value.replace(",", " ").split()]
    return [kind(value)]


class Field:
    def __init__(self, kind, default, help=""):
        self.kind = kind
        self.default = default
        self.help = help

    def convert(self, value):
        if self.kind in ("int-list", "float-list"):
            return _as_list(value, int if self.kind == "int-list" else float)
        if self.kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if self.kind in (int, float, str, bool):
            if self.kind is float and isinstance(value, int):
                return float(value)
            if not isinstance(value, self.kind):
                raise ConfigError(f"expected {self.kind.__name__}, got {value!r}")
            return value
        raise AssertionError(self.kind)


GLOBAL_FIELDS = {
    "seed": Field(int, 0, "base RNG seed"),
    "threads": Field(int, 1, "worker threads for independent grid points "
                     "(strichartz only; 1 elsewhere)"),
}
GAP_FACTOR = Field(float, 4.0, "comparator gap G")
BUDGET = Field(int, 10 ** 9, "tuple enumeration guard")

SCHEMAS = {
    "simulate": {
        "d": Field(int, 1), "gamma": Field(float, 1.0), "lambda": Field(float, 1.0),
        "kcut": Field(int, 8), "sign": Field(str, "defocusing"),
        "integrator": Field(str, "strang"), "dt": Field(float, 0.0),
        "t_end": Field(float, 1.0), "stride": Field(int, 10),
        "data.kind": Field(str, "hs_random"), "data.s": Field(float, 0.5),
        "data.mass": Field(float, 0.01), "checkpoint": Field(bool, True),
    },
    "energy-track": {
        "d": Field(int, 1), "gamma": Field(float, 1.0), "lambda": Field(float, 1.0),
        "kcut": Field(int, 6), "sign": Field(str, "defocusing"),
        "integrator": Field(str, "rk4-galerkin"), "dt": Field(float, 0.0),
        "t_end": Field(float, 0.1), "stride": Field(int, 4),
        "data.kind": Field(str, "hs_random"), "data.s": Field(float, 0.5),
        "data.mass": Field(float, 0.01), "data.modes": Field(int, 6),
        "energy.n_cut": Field(float, 4.0), "energy.s": Field(float, 0.5),
        "gap_factor": GAP_FACTOR, "budget": BUDGET,
    },
    "strichartz": {
        "n_freq": Field(float, 256.0), "lambda": Field(float, 64.0),
        "m_grid": Field("int-list", [4, 8, 16, 32]), "samples": Field(int, 200),
    },
    "census": {
        "d": Field(int, 1), "n_grid": Field("float-list", [4.0, 8.0]),
        "kmax": Field(int, 8),
        "s": Field(float, 0.0, "smoothing order; 0 takes the dimension's "
                   "default, 0.5 in 1-D and 0.6 in 2-D"),
        "gap_grid": Field("float-list", [4.0]), "budget": BUDGET,
    },
    "verify": {
        "cases": Field(str, "i,ii,iii,iv,nonresonant"),
        "n_grid": Field("float-list", [4.0, 8.0, 16.0]),
        "gap_grid": Field("float-list", [3.0, 4.0, 6.0]),
        "kmax_per_n": Field(int, 4), "s": Field(float, 0.5),
    },
    "budget": {
        "d": Field(int, 1), "s_grid": Field("float-list", []),
        "epsilon": Field(float, 0.01), "delta": Field(float, 0.1),
        "slack": Field(float, 0.0), "n_ref": Field(float, 256.0),
    },
    "almost-conservation": {
        "d": Field(int, 1), "gamma": Field(float, 1.0), "lambda": Field(float, 1.0),
        "kcut": Field(int, 20),
        "n_grid": Field("float-list", [4.0, 8.0, 16.0]),
        "s": Field(float, 0.5), "sign": Field(str, "defocusing"),
        "mass": Field(float, 0.25), "dt": Field(float, 0.0),
        "t_end": Field(float, 0.5), "samples": Field(int, 20),
        "gap_factor": GAP_FACTOR, "budget": BUDGET,
    },
}


def _unread_data_keys(cfg: dict) -> tuple[set, str]:
    """The initial-data keys that ``cfg``'s data does not read, and why."""
    if cfg["data.kind"] == "zero":
        return {"data.s", "data.mass", "data.modes"}, "zero data reads no data key"
    if cfg["data.kind"] == "hs_random" and cfg.get("data.modes"):
        return {"data.s", "data.mass"}, (f"sparse data (data.modes={cfg['data.modes']}) reads "
                                         "neither data.s nor data.mass; data.modes = 0 does")
    return set(), ""


def validate(command: str, raw: dict) -> dict:
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    schema = dict(GLOBAL_FIELDS)
    schema.update(SCHEMAS[command])
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {', '.join(unknown)}")
    out = {}
    for key, fld in schema.items():
        out[key] = fld.convert(raw[key]) if key in raw else fld.default
    if out["threads"] < 1:
        raise ConfigError(f"threads={out['threads']} must be >= 1")
    if out["threads"] != 1 and command != "strichartz":
        raise ConfigError(f"threads={out['threads']}: {command} runs on one "
                          "thread; only strichartz uses more")
    if "data.kind" in out:
        keys, why = _unread_data_keys(out)
        if keys & set(raw):
            raise ConfigError(f"{', '.join(sorted(keys & set(raw)))} set but not read: {why}")
    return out


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def resolve_out_dir(flag_value) -> Path:
    env = os.environ.get("NLSLAB_OUT")
    return Path(env) if env else Path(flag_value or "runs")


def fmt(value) -> str:
    """Deterministic CSV cell formatting (shortest round-trip float form);
    a numpy scalar formats as the Python scalar it holds."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return "(" + " ".join(fmt(v) for v in value) + ")"
    return str(value)


def write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def write_manifest(out_dir: Path, command: str, cfg: dict, seeds: dict,
                   guards: dict) -> None:
    manifest = {
        "command": command,
        "code_version": __version__,
        "csv_schema_version": "1",
        "config": cfg,
        "config_hash": config_hash(cfg),
        "seeds": seeds,
        "guards": guards,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
