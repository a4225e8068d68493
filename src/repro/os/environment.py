"""UNIX environment model.

An environment is an ordered mapping of ``NAME`` to ``value`` strings.
Its *size in bytes* follows the kernel's accounting: each variable
occupies ``len("NAME=value") + 1`` bytes (the NUL terminator) in the
block copied to the top of the stack.

The paper's experiments vary total environment size byte-by-byte (e.g. by
growing a single padding variable); :meth:`Environment.of_size` builds
such environments exactly.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple


class Environment:
    """An immutable ordered set of environment variables."""

    __slots__ = ("_vars",)

    def __init__(self, variables: Optional[Mapping[str, str]] = None) -> None:
        self._vars: Dict[str, str] = dict(variables) if variables else {}
        for name in self._vars:
            if not name or "=" in name or "\0" in name:
                raise ValueError(f"invalid environment variable name {name!r}")

    @property
    def total_bytes(self) -> int:
        """Bytes the kernel copies for this environment (incl. NULs)."""
        return sum(len(n) + 1 + len(v) + 1 for n, v in self._vars.items())

    def items(self) -> Iterator[Tuple[str, str]]:
        return iter(self._vars.items())

    def __len__(self) -> int:
        return len(self._vars)

    def __contains__(self, name: str) -> bool:
        return name in self._vars

    def __getitem__(self, name: str) -> str:
        return self._vars[name]

    def with_var(self, name: str, value: str) -> "Environment":
        """A new environment with ``name`` set to ``value``."""
        merged = dict(self._vars)
        merged[name] = value
        return Environment(merged)

    def without_var(self, name: str) -> "Environment":
        merged = dict(self._vars)
        merged.pop(name, None)
        return Environment(merged)

    @classmethod
    def empty(cls) -> "Environment":
        return cls()

    @classmethod
    def typical(cls) -> "Environment":
        """A small, fixed baseline resembling a login shell's environment."""
        return cls(
            {
                "HOME": "/home/user",
                "PATH": "/usr/local/bin:/usr/bin:/bin",
                "SHELL": "/bin/bash",
                "TERM": "xterm",
            }
        )

    @classmethod
    def of_size(cls, total_bytes: int, base: Optional["Environment"] = None) -> "Environment":
        """An environment of exactly ``total_bytes`` bytes.

        Starts from ``base`` (default: empty) and grows a single padding
        variable ``Z`` — the paper's methodology of varying one innocuous
        variable's length.  Raises :class:`ValueError` when the target is
        smaller than the base (or too small to fit the padding variable's
        minimal ``Z=\\0`` footprint when padding is needed).
        """
        base = base if base is not None else cls.empty()
        if "Z" in base:
            raise ValueError("base environment already defines the padding var Z")
        problem = cls.size_problem(total_bytes, base)
        if problem is not None:
            raise ValueError(problem)
        deficit = total_bytes - base.total_bytes
        if deficit == 0:
            return cls(dict(base._vars))
        return base.with_var("Z", "x" * (deficit - 3))

    @classmethod
    def size_problem(
        cls, total_bytes: int, base: Optional["Environment"] = None
    ) -> Optional[str]:
        """Why :meth:`of_size` cannot build ``total_bytes`` from ``base``,
        or None when it can: the size must equal the base's or exceed it
        by at least the padding variable's 3-byte ``Z=\\0`` footprint."""
        base_bytes = (base if base is not None else cls.empty()).total_bytes
        deficit = total_bytes - base_bytes
        if deficit == 0 or deficit >= 3:
            return None
        return (
            f"cannot reach {total_bytes} bytes from a {base_bytes}-byte "
            f"base (padding needs at least 3 bytes)"
        )

    def __repr__(self) -> str:
        return f"Environment({self.total_bytes} bytes, {len(self._vars)} vars)"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Environment):
            return NotImplemented
        return self._vars == other._vars

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._vars.items())))
