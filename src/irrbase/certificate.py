"""Chain certificates: serialized strictly descending chains of subgroups.

A certificate presents each subgroup in the chain as the intersection of
conjugates of a distinguished subgroup H of the ambient symmetric or
alternating group, with the conjugating permutations as explicit witnesses.
Level 0 is H itself (witness set {identity}); claimed orders must strictly
decrease and end at 1.  An independent verifier can recompute every level
from H and the witnesses alone.

JSON schema (all points and cycle strings 1-based, orders decimal strings):

    {
      "degree": int,
      "ambient": "S" | "A",
      "subgroup": {"family": "agl"|"wreath"|"natural"|"explicit",
                   "params": {...},
                   "generators": [cycle-string, ...]},
      "levels": [{"conjugators": [cycle-string, ...], "order": "..."}, ...],
      "claimed_length": int
    }
"""

from __future__ import annotations

import json

from .perm import parse_cycles, print_cycles


class CertificateFormatError(ValueError):
    """Raised when certificate JSON is malformed or violates the schema."""


#: params whose power base**exp must equal the degree, per family
_POWER_PARAMS = {"agl": ("p", "d"), "wreath": ("m", "k")}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cycle_strings(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise CertificateFormatError(f"{what} must be a list of cycle strings")
    return value


class CertLevel:
    def __init__(self, conjugators: list, order: int):
        self.conjugators = conjugators  # list[Permutation]
        self.order = order


class ChainCertificate:
    def __init__(self, degree: int, ambient: str, family: str, params: dict,
                 generators: list, levels: list, claimed_length: int):
        self.degree = degree
        self.ambient = ambient  # "S" or "A"
        self.family = family  # "agl" | "wreath" | "natural" | "explicit"
        self.params = params
        self.generators = generators  # generators of H, list[Permutation]
        self.levels = levels  # list[CertLevel]
        self.claimed_length = claimed_length

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "ambient": self.ambient,
            "subgroup": {
                "family": self.family,
                "params": dict(sorted(self.params.items())),
                "generators": [print_cycles(g) for g in self.generators],
            },
            "levels": [
                {
                    "conjugators": [print_cycles(x) for x in lvl.conjugators],
                    "order": str(lvl.order),
                }
                for lvl in self.levels
            ],
            "claimed_length": self.claimed_length,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ChainCertificate":
        try:
            degree = data["degree"]
            ambient = data["ambient"]
            sub = data["subgroup"]
            family = sub["family"]
            params = sub["params"]
            gen_strs = sub["generators"]
            level_data = data["levels"]
            claimed = data["claimed_length"]
        except (KeyError, TypeError) as e:
            raise CertificateFormatError(f"missing or malformed field: {e}") from None
        if not _is_int(degree) or degree < 1:
            raise CertificateFormatError(f"bad degree {degree!r}")
        if ambient not in ("S", "A"):
            raise CertificateFormatError(f"bad ambient {ambient!r}, expected 'S' or 'A'")
        if family not in ("agl", "wreath", "natural", "explicit"):
            raise CertificateFormatError(f"unknown subgroup family {family!r}")
        if not _is_int(claimed):
            raise CertificateFormatError("claimed_length must be an integer")
        if not isinstance(params, dict) or not all(map(_is_int, params.values())):
            raise CertificateFormatError("params must map names to integers")
        if family in _POWER_PARAMS:  # checked before any work that grows with them
            names = _POWER_PARAMS[family]
            if not all(name in params for name in names):
                raise CertificateFormatError(f"{family} params need {' and '.join(names)}")
            base, exp = (params[name] for name in names)
            if not (2 <= base <= degree and 1 <= exp <= degree.bit_length()
                    and base**exp == degree):
                raise CertificateFormatError(
                    f"params {names[0]}={base}, {names[1]}={exp} do not give degree {degree}"
                )
        generators = [parse_cycles(s, degree) for s in _cycle_strings(gen_strs, "generators")]
        levels = []
        for i, lv in enumerate(level_data):
            try:
                conj_strs = lv["conjugators"]
                order = int(lv["order"])
            except (KeyError, TypeError, ValueError) as e:
                raise CertificateFormatError(f"level {i}: {e}") from None
            conjs = _cycle_strings(conj_strs, f"level {i} conjugators")
            levels.append(CertLevel([parse_cycles(s, degree) for s in conjs], order))
        return cls(
            degree=degree,
            ambient=ambient,
            family=family,
            params=params,
            generators=generators,
            levels=levels,
            claimed_length=claimed,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChainCertificate":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise CertificateFormatError(f"invalid JSON: {e}") from None
        return cls.from_dict(data)
