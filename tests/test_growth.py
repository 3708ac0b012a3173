"""Every public name has a caller in the package or a reason to exist.

A name that ``dpcat/__init__.py`` exports must be referenced somewhere in
``src/dpcat`` besides its own definition and ``__init__.py``, or appear
in ``ALLOWED`` with its reason.  References are NAME tokens, so a name
mentioned only in a docstring or comment does not count.
"""

import ast
import io
import tokenize
from pathlib import Path

import dpcat

PACKAGE = Path(dpcat.__file__).resolve().parent

#: Exported names with no caller in the package, each with its reason.
ALLOWED = {
    "sufficient_set": "paper object: the sufficient set S of a neighbour pair",
    "dp_holds_on_set": "paper object: the privacy inequality on one set A",
    "exp_dp_condition": "perfbench import: the hamming closed form",
    "product_dp_condition": "perfbench import: the symmetric closed form",
    "p_from_k": "paper object: the hamming k as the product's p",
    "enumerate_neighbor_pairs": "paper object: the neighbour relation",
    "sample_feasible_matrices": "perfbench import: criterion-6 draws",
    "make_symmetric_product": "README quick start: builds the spec",
}


def _exported() -> dict[str, str]:
    """Exported name -> the name its module defines it under."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name: alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references() -> dict[str, int]:
    """NAME token counts over the package's modules, leaving out
    ``__init__.py``, the name after each ``def`` or ``class`` and a name
    that starts a line, which at module level is what it defines."""
    counts: dict[str, int] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        previous = None
        source = path.read_text(encoding="utf-8")
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if (tok.type == tokenize.NAME and tok.start[1] > 0
                    and previous not in ("def", "class")):
                counts[tok.string] = counts.get(tok.string, 0) + 1
            if tok.type not in (tokenize.NL, tokenize.COMMENT):
                previous = tok.string
    return counts


def test_every_exported_name_has_a_caller_or_a_reason():
    counts = _references()
    unused = []
    for exported, name in _exported().items():
        if not counts.get(name) and exported not in ALLOWED:
            unused.append(exported)
    assert unused == [], (
        "exported names with no caller in src/dpcat; remove them or give "
        f"each a reason in ALLOWED: {unused}")


def test_every_allowed_name_is_exported_and_unused():
    counts = _references()
    exported = _exported()
    for name, reason in ALLOWED.items():
        assert name in exported, name
        assert reason.split(":")[0] in (
            "paper object", "perfbench import", "tracer-wrapped",
            "README quick start"), name
        assert not counts.get(exported[name]), (
            f"{name} has a caller now; drop its entry")
