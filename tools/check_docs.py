"""Docs checker for the Markdown docs and the package docstrings (CI
docs job).

Five checks:

* **links** — scans ``README.md`` and ``docs/*.md`` for Markdown links
  and verifies that every *relative* target exists in the repository
  (anchors are stripped; ``http(s)``/``mailto`` targets are skipped —
  this repo's CI has no business depending on the external internet);
* **code references** — every backticked ``path.py::Name`` in the same
  files must name a file (relative to the repository root or to
  ``src/repro``) that defines ``Name`` (a function, class or
  module-level assignment);
* **docstring references** — every ``:class:``/``:meth:``/``:func:``/
  ``:attr:`` target in a ``src/repro`` docstring must end in a name the
  module it points at binds (a function, class, module-level or
  class-body assignment, dataclass field, ``__slots__`` entry or
  import), so a reference to a retired method cannot outlive it;
* **metric names** — every name in ARCHITECTURE's "Metric names" table
  is a string literal in ``src/repro``, and every literal name passed
  to ``counter``, ``observe`` or ``gauge`` (bare, through an alias like
  ``_metric``/``_observe``, or as an attribute like ``tel.counter``)
  has a row in that table;
* **quoted numbers** — the README's "Measured performance" table cells
  ("Seed pipeline" and "Batched" seconds, two decimals; "Speedup vs
  seed", one decimal) and its oracle walk "took A–Bx" range must match
  ``BENCH_simulate.json``.

Run::

    python tools/check_docs.py            # exit 1 on any problem
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# [text](target) — target captured up to the closing parenthesis;
# images (![alt](target)) match the same pattern via the inner part.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")
# `path.py::Name` — a code reference at the start of a backtick span.
_CODE_REF = re.compile(r"`([\w./-]+\.py)::(\w+)")
# :role:`target` or :role:`text <target>` in a docstring.
_ROLE_REF = re.compile(r":(?:class|meth|func|attr):`([^`]+)`")
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def doc_files() -> list[pathlib.Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def broken_links(files: list[pathlib.Path] | None = None) -> list[str]:
    """All broken relative links as ``file: target`` strings."""
    problems: list[str] = []
    for doc in files or doc_files():
        text = doc.read_text()
        # Ignore fenced code blocks: shell/python snippets contain
        # bracket-paren sequences that are not links.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for match in _LINK.finditer(text):
            target = match.group(1).split("#", 1)[0]
            if not target or target.startswith(_EXTERNAL):
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(f"{doc.relative_to(REPO_ROOT)}: {target}")
    return problems


def _assigned_names(body: list[ast.stmt]) -> set[str]:
    """The plain names one statement list assigns (``x = ...`` and
    ``x: T = ...`` alike, so dataclass fields count)."""
    names = set()
    for node in body:
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        names.update(target.id for target in targets
                     if isinstance(target, ast.Name))
    return names


def _defined_names(path: pathlib.Path) -> set[str]:
    """Functions and classes defined anywhere in a Python file, plus its
    module-level assignment targets."""
    tree = ast.parse(path.read_text())
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))}
    return names | _assigned_names(tree.body)


def stale_references(files: list[pathlib.Path] | None = None) -> list[str]:
    """Backticked ``path.py::Name`` references whose file is missing or
    defines no ``Name``, as ``file: reference`` strings."""
    problems: list[str] = []
    for doc in files or doc_files():
        text = re.sub(r"```.*?```", "", doc.read_text(), flags=re.S)
        for match in _CODE_REF.finditer(text):
            path, name = match.groups()
            candidates = [REPO_ROOT / path, REPO_ROOT / "src" / "repro" / path]
            source = next((c for c in candidates if c.is_file()), None)
            if source is None or name not in _defined_names(source):
                problems.append(f"{doc.name}: {path}::{name}")
    return problems


def _module_names(tree: ast.Module) -> set[str]:
    """Every name a module binds: functions and classes anywhere,
    module-level and class-body assignments (dataclass fields
    included), ``__slots__`` entries, and the names it imports."""
    names = _assigned_names(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        if not isinstance(node, ast.ClassDef):
            continue
        names |= _assigned_names(node.body)
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets) \
                    and isinstance(stmt.value, (ast.Tuple, ast.List)):
                names.update(elt.value for elt in stmt.value.elts
                             if isinstance(elt, ast.Constant))
    return names


def _role_targets(tree: ast.Module):
    """``(role, target)`` for every role reference in the module's
    docstrings; the target is the bracketed part of ``text <target>``,
    without whitespace, ``~``/``!`` prefix or ``()`` suffix."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef,
                                 ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for match in _ROLE_REF.finditer(
                ast.get_docstring(node, clean=False) or ""):
            target = match.group(1)
            if target.endswith(">") and "<" in target:
                target = target[target.rindex("<") + 1:-1]
            yield (" ".join(match.group(0).split()),
                   "".join(target.split()).lstrip("~!").rstrip("()"))


def unresolved_docstring_references(
        root: pathlib.Path = PACKAGE_ROOT) -> tuple[list[str], int]:
    """Docstring role targets in the package at ``root`` that name
    nothing it defines, as ``file: role`` strings, plus the number of
    targets checked.

    A target's last name must be bound by the module it points at:
    ``~repro.hw.fold.FoldRules`` by ``repro/hw/fold.py``, a relative
    ``Owner.name`` by the package modules named ``Owner`` or defining
    a class ``Owner``, and a bare ``name`` (or an unknown owner's) by
    the docstring's own module.  So a leftover reference to a retired
    method is reported even where another class defines a method of
    that name.
    """
    trees = {path: ast.parse(path.read_text())
             for path in sorted(root.rglob("*.py"))}
    bound = {path: _module_names(tree) for path, tree in trees.items()}
    owners: dict[str, list[pathlib.Path]] = {}
    for path, tree in trees.items():
        owners.setdefault(path.stem, []).append(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                owners.setdefault(node.name, []).append(path)

    def module_of(parts: list[str]) -> pathlib.Path | None:
        """The module of the longest dotted prefix naming a file."""
        for k in range(len(parts) - 1, 0, -1):
            base = root.parent.joinpath(*parts[:k])
            for candidate in (base.with_suffix(".py"), base / "__init__.py"):
                if candidate in bound:
                    return candidate
        return None

    problems: list[str] = []
    checked = 0
    for path, tree in trees.items():
        for role, target in _role_targets(tree):
            checked += 1
            parts = target.split(".")
            if parts[0] == root.name:
                homes = [module_of(parts)]
            elif len(parts) > 1 and parts[-2] in owners:
                homes = owners[parts[-2]]
            else:
                homes = [path]
            if not any(home is not None and parts[-1] in bound[home]
                       for home in homes):
                problems.append(f"{path.relative_to(root.parent)}: {role}")
    return problems, checked


def _section_after(text: str, heading: str) -> str:
    """The text after ``heading`` (empty when it is missing)."""
    return text.split(heading, 1)[1] if heading in text else ""


def _table_after(text: str, heading: str) -> list[list[str]]:
    """The cells of the first Markdown table under ``heading``."""
    rows = []
    for line in _section_after(text, heading).splitlines():
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    return [row for row in rows if not set("".join(row)) <= set("-: ")]


# Metric emitters, by name or attribute; ``_metric`` and ``_observe``
# are the service modules' import aliases of ``counter``/``observe``.
_EMITTERS = {"counter", "observe", "gauge", "_metric", "_observe"}


def _string_literals(tree: ast.Module) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _emitted_names(tree: ast.Module) -> set[str]:
    """Literal first arguments of every ``counter``/``observe``/``gauge``
    call, through aliases and attribute access alike."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        called = func.attr if isinstance(func, ast.Attribute) \
            else func.id if isinstance(func, ast.Name) else None
        first = node.args[0]
        if called in _EMITTERS and isinstance(first, ast.Constant) \
                and isinstance(first.value, str):
            names.add(first.value)
    return names


def metric_mismatches(architecture: str,
                      root: pathlib.Path = PACKAGE_ROOT) -> list[str]:
    """Both directions between ARCHITECTURE's metric table and the
    package at ``root``: documented names no source file spells, and
    emitted names the table has no row for."""
    table = _table_after(architecture, "**Metric names.**")
    documented = {name for row in table[1:]
                  for name in re.findall(r"`([^`]+)`", row[0])}
    if not documented:
        return ["ARCHITECTURE.md: no metric table under 'Metric names'"]
    literals: set[str] = set()
    emitted: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        literals |= _string_literals(tree)
        emitted |= _emitted_names(tree)
    return ([f"ARCHITECTURE.md: {name} is documented but no source "
             "names it" for name in sorted(documented - literals)]
            + [f"ARCHITECTURE.md: {name} is emitted but has no row"
               for name in sorted(emitted - documented)])


# README "Measured performance" columns quoted from the record's
# ``end_to_end`` rows: column header -> (row field, cell format).
QUOTED_COLUMNS = {
    "Seed pipeline": ("legacy_s", "{:.2f} s"),
    "Batched": ("batched_s", "{:.2f} s"),
    "Speedup vs seed": ("speedup", "{:.1f}x"),
}
# "The oracle walk ... took A–Bx the batched walk's time."
_ORACLE_RANGE = re.compile(r"oracle walk[^.]*?took (\S+?)–(\S+?)x", re.S)


def quoted_mismatches(readme: str, record: dict) -> list[str]:
    """README "Measured performance" figures that disagree with
    ``record``.

    ``readme`` is the README text and ``record`` the parsed
    ``BENCH_simulate.json``.  Checked: every :data:`QUOTED_COLUMNS`
    cell of the table, and the oracle walk's "took A–Bx" range (the
    min and max of ``bigint_s / batched_s``, one decimal).  A row's
    circuit ``"redwine SVM-R"`` names the record's ``"redwine/svm_r"``.
    """
    table = _table_after(readme, "## Measured performance")
    missing = [c for c in QUOTED_COLUMNS if not table or c not in table[0]]
    if missing:
        return [f"README.md: no {', '.join(missing)} column under "
                "'## Measured performance'"]
    rows = {row["circuit"]: row for row in record["end_to_end"]}
    problems = []
    for cells in table[1:]:
        dataset, model = cells[0].split()
        row = rows.get(f"{dataset}/{model.lower().replace('-', '_')}")
        if row is None:
            problems.append(f"README.md: {cells[0]} is not in the record")
            continue
        for column, (field, fmt) in QUOTED_COLUMNS.items():
            quoted = cells[table[0].index(column)]
            if quoted != fmt.format(row[field]):
                problems.append(f"README.md: {cells[0]} {column} quotes "
                                f"{quoted}, the record has {row[field]:.3f}")
    ratios = [row["bigint_s"] / row["batched_s"] for row in rows.values()]
    expected = f"{min(ratios):.1f}–{max(ratios):.1f}"
    match = _ORACLE_RANGE.search(
        _section_after(readme, "## Measured performance"))
    if match is None:
        problems.append("README.md: no oracle walk 'took A–Bx' range")
    elif "–".join(match.groups()) != expected:
        problems.append(f"README.md: the oracle walk range quotes "
                        f"{'–'.join(match.groups())}x, the record has "
                        f"{expected}x")
    return problems


def main() -> int:
    files = doc_files()
    problems = broken_links(files)
    for problem in problems:
        print(f"broken link — {problem}", file=sys.stderr)
    stale = stale_references(files)
    for problem in stale:
        print(f"stale code reference — {problem}", file=sys.stderr)
    unresolved, n_roles = unresolved_docstring_references()
    for problem in unresolved:
        print(f"stale docstring reference — {problem}", file=sys.stderr)
    metrics = metric_mismatches(
        (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text())
    for problem in metrics:
        print(f"stale metric — {problem}", file=sys.stderr)
    mismatches = quoted_mismatches(
        (REPO_ROOT / "README.md").read_text(),
        json.loads((REPO_ROOT / "BENCH_simulate.json").read_text()))
    for problem in mismatches:
        print(f"stale number — {problem}", file=sys.stderr)
    print(f"checked {len(files)} docs: {len(problems)} broken links, "
          f"{len(stale)} stale code references, "
          f"{len(metrics)} stale metrics, {len(mismatches)} stale "
          f"numbers; checked {n_roles} docstring references: "
          f"{len(unresolved)} unresolved")
    return 1 if problems or stale or unresolved or metrics \
        or mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
