"""Module boundaries: no private name crosses a module line in the package,
only fem and linalg read the fields of a mirror basis, only linalg reads
the parts of its blocks, and only cli.Emitter opens a file for writing."""
import ast
import pathlib

import masscale

SRC = pathlib.Path(masscale.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """``a.b.c`` of a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def crossings(source):
    """The private names that ``source`` imports from, or reads on, another
    masscale module."""
    tree = ast.parse(source)
    module_names = {"masscale"} | {f"masscale.{m}" for m in MODULES}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "masscale"
            if not inside:
                continue
            package = node.module in (None, "masscale")
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif package and alias.name in MODULES:
                    module_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "masscale" and alias.asname:
                    module_names.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if _dotted(node.value) in module_names:
                found.append(f"{_dotted(node.value)}.{node.attr}")
    return found


def test_the_scan_finds_a_crossing():
    assert crossings("from .linalg import _eig, cholesky\n") == ["from .linalg import _eig"]
    assert crossings("from . import integrator\nintegrator._first(1)\n") == ["integrator._first"]
    assert crossings("import masscale.fem as f\nf._CORNER_SIGNS\n") == ["f._CORNER_SIGNS"]
    assert crossings("from . import fem\nself._values\nfem.Mesh\n") == []


def test_no_private_name_crosses_a_module_line():
    found = {path.name: crossings(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


# fem.MirrorBasis's fields, its one-component basis and the joins of its
# blocks from that basis's: fem builds them, linalg reads them behind
# linalg.Blocks and linalg.CheckedMatrix.component.
BASIS_FIELDS = {"columns", "reps", "images", "signs", "sizes", "characters", "component", "joins"}
BASIS_READERS = {"fem.py", "linalg.py"}


def basis_reads(source):
    """The lines of ``source`` that read a field named in BASIS_FIELDS, as ``line: .field``."""
    reads = sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in BASIS_FIELDS)
    return [f"{line}: .{attr}" for line, attr in reads]


def test_the_basis_scan_finds_a_field():
    assert basis_reads("for q in self.basis.columns:\n    q.T\n") == ["1: .columns"]
    assert basis_reads("blocks.expand(k, y)\nbasis.order\n") == []


def test_only_fem_and_linalg_read_the_mirror_basis():
    found = {path.name: basis_reads(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name not in BASIS_READERS}
    assert {name: lines for name, lines in found.items() if lines} == {}


# linalg.Blocks.parts: a part may be a 1-D diagonal, a CSR or a dense
# array, and linalg alone forms it dense (linalg._dense_part); other
# modules ask a Blocks for its orders and operators.
def parts_reads(source):
    """The lines of ``source`` that read an attribute ``parts``, as ``line: .parts``."""
    return [f"{node.lineno}: .parts" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "parts"]


def test_the_parts_scan_finds_a_read():
    assert parts_reads("for k, _ in blocks.parts:\n    len(k)\n") == ["1: .parts"]
    assert parts_reads("parts = [label]\nblocks.orders\n") == []


def test_only_linalg_reads_the_parts_of_blocks():
    found = {path.name: parts_reads(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def file_writes(source):
    """``(line, scope)`` of each call of ``open`` in ``source`` whose mode
    writes (holds w, a, x or +, or is not a string constant), the scope
    being the dotted names of the classes and functions around it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id == "open"):
                mode = child.args[1] if len(child.args) > 1 else next(
                    (k.value for k in child.keywords if k.arg == "mode"), None)
                constant = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                if mode is not None and (not constant or set(mode.value) & set("wax+")):
                    found.append((child.lineno, scope))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_the_write_scan_finds_an_open_for_writing():
    source = ("class Emitter:\n    def write(self, p):\n        open(p, 'w')\n"
              "def report(p, mode):\n    open(p, mode=mode)\n    open(p)\n    open(p, 'rb')\n"
              "    with open(p, 'a', newline='') as fh:\n        fh.write('')\n"
              "open('log', 'r+')\n")
    assert file_writes(source) == [(3, "Emitter.write"), (5, "report"), (8, "report"), (10, "")]


def test_only_the_emitter_opens_a_file_for_writing():
    # every output file, the manifest included, is written by cli.Emitter
    found = [f"{path.stem}.{scope}:{line}" for path in sorted(SRC.glob("*.py"))
             for line, scope in file_writes(path.read_text())]
    assert [w for w in found if not w.startswith("cli.Emitter.")] == []
