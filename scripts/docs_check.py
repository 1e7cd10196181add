#!/usr/bin/env python
"""Docs lint: internal links resolve and the README matches the examples.

Checks, over ``README.md`` and ``docs/*.md``:

1. every relative markdown link ``[text](target)`` points at a file that
   exists (anchors are checked against the target file's headings, slugified
   the way GitHub does);
2. every ``examples/*.py`` is listed in the README's Examples section, and
   the description the README gives is the first line of the example's
   module docstring — so the index can never drift from the scripts;
3. every ``ServiceConfig`` field has an entry in the class docstring's
   ``Attributes`` section, and every entry there names a field (an
   ``a / b`` entry documents both);
4. every keyword in a ``ServiceConfig(...)`` or
   ``ServiceConfig.from_planner_config(...)`` snippet names a real
   ``ServiceConfig`` (or inherited ``PlannerConfig``) field — so a removed
   option cannot linger in the docs.

The config checks read ``src/repro/config.py`` with :mod:`ast`, so they
need no import path.

Run from anywhere: paths resolve against the repo root.  Exits non-zero
with one line per problem (consumed by ``scripts/ci.sh`` and the CI lint
job).
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` inline links; images share the syntax (leading ``!``).
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CONFIG = ROOT / "src" / "repro" / "config.py"
#: Start of a ``ServiceConfig(`` / ``ServiceConfig.from_planner_config(`` call.
_CONFIG_CALL = re.compile(r"\bServiceConfig(?:\.from_planner_config)?\(")
#: A top-level keyword argument inside a call's (flattened) argument text.
_KEYWORD = re.compile(r"(?<![\w.*])([A-Za-z_]\w*)\s*=(?!=)")
#: An ``Attributes`` entry line of a numpydoc section: ``name:`` or
#: ``a / b:`` at the section's own indentation.
_ENTRY = re.compile(r"^(\w+(?:\s*/\s*\w+)*):\s*$")


def _doc_files():
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _slugify(heading: str) -> str:
    """GitHub's anchor slug: lowercase, spaces to dashes, drop punctuation."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set:
    return {_slugify(m.group(1)) for m in _HEADING.finditer(path.read_text())}


def _check_links(errors: list) -> None:
    for doc in _doc_files():
        if not doc.exists():
            errors.append(f"{doc.relative_to(ROOT)}: file missing")
            continue
        for match in _LINK.finditer(doc.read_text()):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, anchor = target.partition("#")
            resolved = (doc.parent / target).resolve() if target else doc
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(ROOT)}: broken link -> {match.group(1)}"
                )
                continue
            if anchor and resolved.suffix == ".md" and anchor not in _anchors(resolved):
                errors.append(
                    f"{doc.relative_to(ROOT)}: broken anchor -> {match.group(1)}"
                )


def _docstring_first_line(path: Path) -> str:
    doc = ast.get_docstring(ast.parse(path.read_text())) or ""
    return doc.strip().splitlines()[0].strip() if doc.strip() else ""


def _check_examples(errors: list) -> None:
    readme = (ROOT / "README.md").read_text()
    # The README hard-wraps prose, so compare with whitespace collapsed.
    flat = re.sub(r"\s+", " ", readme)
    for example in sorted((ROOT / "examples").glob("*.py")):
        rel = f"examples/{example.name}"
        first_line = _docstring_first_line(example)
        if not first_line:
            errors.append(f"{rel}: missing module docstring")
            continue
        if rel not in readme:
            errors.append(f"README.md: {rel} is not listed")
            continue
        if re.sub(r"\s+", " ", first_line) not in flat:
            errors.append(
                f"README.md: description for {rel} does not match its "
                f"docstring first line: {first_line!r}"
            )


def _config_classes() -> dict:
    """``{class name: ast.ClassDef}`` of the classes in the config module."""
    tree = ast.parse(_CONFIG.read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}


def _own_fields(cls: ast.ClassDef) -> list:
    """Annotated (dataclass) fields declared in the class body itself."""
    return [
        node.target.id
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _attribute_entries(cls: ast.ClassDef) -> list:
    """Names documented in the class docstring's ``Attributes`` section."""
    lines = (ast.get_docstring(cls) or "").splitlines()
    entries: list = []
    inside = False
    for number, line in enumerate(lines):
        underline = lines[number + 1] if number + 1 < len(lines) else ""
        if re.fullmatch(r"-{3,}", underline.strip()) and line.strip():
            inside = line.strip() == "Attributes"
            continue
        match = _ENTRY.match(line)
        if inside and match:
            entries.extend(name.strip() for name in match.group(1).split("/"))
    return entries


def _check_config_attributes(errors: list) -> None:
    service = _config_classes()["ServiceConfig"]
    fields = _own_fields(service)
    entries = _attribute_entries(service)
    for name in fields:
        if name not in entries:
            errors.append(f"src/repro/config.py: ServiceConfig.{name} has no Attributes entry")
    for name in entries:
        if name not in fields:
            errors.append(
                f"src/repro/config.py: ServiceConfig Attributes entry {name!r} names no field"
            )


def _call_arguments(text: str, start: int) -> str:
    """The argument text of the call whose ``(`` ends at ``start``, with
    nested brackets blanked out so only top-level keywords remain."""
    depth = 1
    flat = []
    for char in text[start:]:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
            if depth == 0:
                break
        flat.append(char if depth == 1 else " ")
    return "".join(flat)


def _check_config_snippets(errors: list) -> None:
    classes = _config_classes()
    known = set(_own_fields(classes["PlannerConfig"])) | set(_own_fields(classes["ServiceConfig"]))
    for doc in _doc_files():
        if not doc.exists():
            continue
        text = doc.read_text()
        for call in _CONFIG_CALL.finditer(text):
            for keyword in _KEYWORD.findall(_call_arguments(text, call.end())):
                if keyword not in known:
                    line = text.count("\n", 0, call.start()) + 1
                    errors.append(
                        f"{doc.relative_to(ROOT)}:{line}: ServiceConfig has no field {keyword!r}"
                    )


def main() -> int:
    errors: list = []
    _check_links(errors)
    _check_examples(errors)
    _check_config_attributes(errors)
    _check_config_snippets(errors)
    for error in errors:
        print(f"docs_check: {error}", file=sys.stderr)
    if errors:
        print(f"docs_check: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    docs = len(_doc_files())
    examples = len(list((ROOT / "examples").glob("*.py")))
    print(f"docs_check: OK ({docs} docs, {examples} examples)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
