"""Source-level helpers: the suppression parser, the path→module
mapping and the directory walk.

This module is a deliberate leaf: it imports nothing from the rest of
:mod:`repro.lint`.
"""

from __future__ import annotations

import io
import re
import tokenize
from pathlib import Path, PurePosixPath
from typing import Dict, FrozenSet, Iterable, Iterator, Union

#: directory names never descended into when a *directory* is linted;
#: passing such a path explicitly on the command line still lints it
#: (tests/fixtures/lint holds intentionally-violating corpus files)
SKIP_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".hg", "fixtures", "build", "dist", ".venv", "venv", ".eggs"}
)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Z0-9_,\s]+)\])?")

#: sentinel for a bare ``ignore`` (suppresses every rule on the line)
_ALL_RULES = frozenset({"*"})


def parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule ids waived there (``{'*'}`` = all).

    Comments are located with :mod:`tokenize` so a ``#`` inside a string
    literal can never suppress anything. Files broken badly enough that
    tokenization fails produce no suppressions — their findings stand.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            line = token.start[0]
            if match.group(1) is None:
                ids = _ALL_RULES
            else:
                ids = frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
            suppressions[line] = suppressions.get(line, frozenset()) | ids
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return suppressions


def module_name_for(path: str) -> Union[str, None]:
    """Dotted module name for files under a ``repro`` package directory.

    Derived purely from the path shape (the last ``repro`` component and
    everything below it), so it works for ``src/repro/...``, installed
    trees, and temp-dir copies alike. ``None`` for tests and scripts.
    """
    parts = PurePosixPath(path.replace("\\", "/")).parts
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - tuple(reversed(parts)).index("repro")
    module_parts = list(parts[anchor:])
    leaf = module_parts[-1]
    if not leaf.endswith(".py"):
        return None
    module_parts[-1] = leaf[: -len(".py")]
    if module_parts[-1] == "__init__":
        module_parts.pop()
    return ".".join(module_parts)


def iter_python_files(paths: Iterable[Union[str, Path]]) -> Iterator[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list.

    Directories are walked recursively, skipping :data:`SKIP_DIR_NAMES`
    and hidden directories; explicit file arguments are always included.
    """
    seen: set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py" and root not in seen:
                seen.add(root)
                yield root
            continue
        candidates = sorted(root.rglob("*.py"))
        for candidate in candidates:
            relative = candidate.relative_to(root).parts[:-1]
            if any(part in SKIP_DIR_NAMES or part.startswith(".") for part in relative):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate
