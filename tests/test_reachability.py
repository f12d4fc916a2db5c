"""Every definition in ``src/tau2`` is reached from a command or the public API.

A name-level scan of the package's syntax trees starts from ``cli.main``,
the names in ``tau2.__all__`` with every method of their classes, the
module-level statements (the property registries among them), the dunder
methods of reached classes, ``_Parser.error`` (argparse calls it) and
``KEPT``.  From each reached definition it follows every name and attribute
its body references:

* a bare name resolves to the module's own definition of it, or through the
  module's imports to the definition it was imported from;
* ``module.name``, with ``module`` imported as a module, resolves to that
  module's definition;
* any other ``x.name`` resolves to every method called ``name``.

Annotations are not followed: they are never evaluated at run time.  The
scan over-approximates what runs, so a definition it reports as unreached
is one that nothing in the package names.  Code that only tests need
belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tau2"

# Definitions that nothing in the package reaches and that stay on purpose.
KEPT = {
    "intlin.in_rational_span": "perfbench/tracer.py wraps it by name, so `perfbench/run.py --trace 1` needs it",
    "randmodel.count_bound_p": "the paper's lower bound on the favourable counts, for the claims table on the ROADMAP",
    "dioph.parse_system": "reads the integer systems `encode` writes, the input of the planned `interpret` round trip",
}
ROOTS = ("cli.main", "cli._Parser.error")


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def _references(nodes):
    """Names and attributes the nodes reference, annotations left out."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Name, ast.Attribute)):
            yield node
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    stack.append(child)


class Package:
    """Definitions, import bindings and reachability of a set of modules."""

    def __init__(self, sources: dict[str, str]):
        self.trees = {mod: ast.parse(text) for mod, text in sources.items()}
        self.defs: dict[str, ast.AST] = {}  # "mod.name" and "mod.Class.method"
        self.methods: dict[str, list[str]] = {}  # method name -> qualnames
        self.bindings: dict[str, dict[str, str]] = {}  # module -> local name -> "mod.name" or "mod"
        for mod, tree in self.trees.items():
            bound = self.bindings[mod] = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        target = f"{node.module}.{alias.name}" if node.module else alias.name
                        bound[alias.asname or alias.name] = target
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[f"{mod}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            qual = f"{mod}.{node.name}.{item.name}"
                            self.defs[qual] = item
                            self.methods.setdefault(item.name, []).append(qual)
        init = self.trees.get("__init__")
        self.public = ()
        if init is not None:
            for node in init.body:
                if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                    self.public = tuple(ast.literal_eval(node.value))

    def _resolve(self, mod: str, node) -> list[str]:
        if isinstance(node, ast.Name):
            own = f"{mod}.{node.id}"
            if own in self.defs:
                return [own]
            target = self.bindings[mod].get(node.id)
            return [target] if target in self.defs else []
        value = node.value
        if isinstance(value, ast.Name) and self.bindings[mod].get(value.id) in self.trees:
            target = f"{self.bindings[mod][value.id]}.{node.attr}"
            return [target] if target in self.defs else []
        return self.methods.get(node.attr, [])

    def _expand(self, qual: str) -> tuple[str, list]:
        """The module of a definition and the syntax it references when reached."""
        mod = qual.split(".", 1)[0]
        node = self.defs[qual]
        if isinstance(node, ast.ClassDef):
            own = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
            return mod, node.bases + node.keywords + node.decorator_list + own
        return mod, [node]

    def live(self, roots=()) -> set[str]:
        """Qualnames reached from the standard roots plus ``roots``."""
        todo = [q for q in (*ROOTS, *roots) if q in self.defs]
        for name in self.public:
            todo += self._resolve("__init__", ast.Name(id=name))
        for qual in list(todo):
            if isinstance(self.defs[qual], ast.ClassDef):
                todo += [m for m in self.defs if m.startswith(qual + ".")]
        seen: set[str] = set()
        for mod, tree in self.trees.items():
            top = [n for n in tree.body if not isinstance(n, (ast.FunctionDef, ast.ClassDef))]
            todo += [q for ref in _references(top) for q in self._resolve(mod, ref)]
        while todo:
            qual = todo.pop()
            if qual in seen:
                continue
            seen.add(qual)
            if isinstance(self.defs[qual], ast.ClassDef):
                todo += [
                    m for m in self.defs
                    if m.startswith(qual + ".") and m.rsplit(".", 1)[1].startswith("__") and m.endswith("__")
                ]
            mod, nodes = self._expand(qual)
            todo += [q for ref in _references(nodes) for q in self._resolve(mod, ref)]
        return seen

    def unreached(self) -> set[str]:
        return set(self.defs) - self.live(KEPT)

    def reachable_kept(self) -> set[str]:
        """KEPT entries that something reaches without the table, or that no longer exist."""
        live = self.live()
        return {q for q in KEPT if q in live or q not in self.defs}

    def unused_imports(self) -> set[str]:
        """"mod: name" for each name a module imports and never uses
        (``__init__`` re-exports its imports)."""
        out = set()
        for mod, tree in self.trees.items():
            if mod == "__init__":
                continue
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in tree.body:
                if isinstance(node, ast.Import):
                    names = [(a.asname or a.name).split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    names = [a.asname or a.name for a in node.names]
                else:
                    continue
                out |= {f"{mod}: {name}" for name in names if name not in used}
        return out


def test_every_definition_is_reached():
    assert Package(package_sources()).unreached() == set()


def test_no_module_imports_a_name_it_never_uses():
    assert Package(package_sources()).unused_imports() == set()


def test_kept_entries_are_unreached_definitions():
    # An entry that a command starts to reach, or whose definition is gone,
    # must leave the table.
    assert Package(package_sources()).reachable_kept() == set()


def test_public_api_is_the_documented_one():
    assert set(Package(package_sources()).public) == {
        "__version__", "IntMatrix", "LatticeBasis", "MalcevElement",
        "Tau2Presentation", "commutator", "inverse", "multiply", "power", "hnf", "snf",
    }


class TestNegativeControls:
    def test_an_uncalled_def_is_reported(self):
        sources = package_sources()
        sources["core"] += "\n\ndef _never_called(p):\n    return multiply(p.identity(), p.identity())\n"
        sources["cli"] += "\n\nclass _Unused:\n    def helper(self):\n        return 1\n"
        assert Package(sources).unreached() == {"core._never_called", "cli._Unused", "cli._Unused.helper"}

    def test_an_unused_method_of_a_reached_class_is_reported(self):
        sources = package_sources()
        old = "    def unknowns(self) -> set[str]:"
        assert old in sources["dioph"]
        sources["dioph"] = sources["dioph"].replace(old, "    def _spare(self):\n        return 0\n\n" + old)
        assert Package(sources).unreached() == {"dioph.Poly._spare"}

    def test_a_reachable_kept_entry_is_reported(self):
        sources = package_sources()
        old = "def main(argv=None) -> int:\n"
        assert old in sources["cli"]
        sources["cli"] = sources["cli"].replace(old, old + "    in_rational_span([], [])\n")
        sources["cli"] += "\nfrom .intlin import in_rational_span\n"
        assert Package(sources).reachable_kept() == {"intlin.in_rational_span"}

    def test_an_unused_import_is_reported(self):
        sources = package_sources()
        sources["structure"] += "\nfrom .core import table_slot\n"
        assert Package(sources).unused_imports() == {"structure: table_slot"}
