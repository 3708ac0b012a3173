"""Every public name has a caller in the package or a reason to exist,
and the command line has one pinned surface.

A name that ``dpcat/__init__.py`` exports must be referenced somewhere in
``src/dpcat`` besides its own definition and ``__init__.py``, or appear
in ``ALLOWED`` with its reason.  References are NAME tokens, so a name
mentioned only in a docstring or comment does not count.

Each subcommand's options are pinned in ``CLI_OPTIONS``, so adding one is
a visible change here, and every subcommand is run twice on the same
inputs to show that its output is a function of them.  Every report is
JSON, so a second output format is a visible change here too.

Each defaulted parameter of the exported API is pinned in
``LIBRARY_KEYWORDS``, so a new library knob is a visible change here too,
and so are the subset kernel's parameters, in ``SUBSET_SCAN_PARAMETERS``.
``Count``'s methods are pinned in ``COUNT_METHODS``: a count prints, adds
and compares where one side fits under the cap, and a hash or an order
between two counts past the cap is a visible change here.

The verifier's tie rule, ``TIE_BAND``, is read in one function, so a new
route cannot bring a tie rule of its own, and it reads no
``COUNT_DIGIT_CAP``: ``Count`` alone decides when a count is an int.
Likewise its verdict rule: ``TOLERANCE`` is read only by ``passes`` and
by the report's printed ``tolerance``, and every function that turns a
margin into a verdict calls ``passes`` (``VERDICTS``).
Brute force's one limit, ``BRUTE_FORCE_STATES``, is read only by
``verify_bruteforce``.  A symmetric parent's two ranges are each checked
in one function (``RANGE_CHECKS``): the flip probability in
``mechanisms._check_flip`` and the hamming k in ``HammingUtility``, and
every reader of p or k calls that function.
"""

import argparse
import ast
import contextlib
import inspect
import io
import json
import re
import tokenize
from pathlib import Path

import pytest

import dpcat
import dpcat.analysis
import dpcat.cli
import dpcat.kernels
import dpcat.verifier

PACKAGE = Path(dpcat.__file__).resolve().parent

#: Exported names with no caller in the package, each with its reason.
ALLOWED = {
    "sufficient_set": "paper object: the sufficient set S of a neighbour pair",
    "dp_holds_on_set": "paper object: the privacy inequality on one set A",
    "exp_dp_condition": "perfbench import: the hamming closed form",
    "p_from_k": "paper object: the hamming k as the product's p",
    "enumerate_neighbor_pairs": "paper object: the neighbour relation",
    "sample_feasible_matrices": "perfbench import: criterion-6 draws",
    "make_symmetric_product": "README quick start: builds the spec",
    "KERNEL_BACKEND": "perfbench import: `perfbench/worker.py` records the "
                      "scan backend",
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


#: Each subcommand's options, in the order the parser adds them.
CLI_OPTIONS = {
    "verify": ["--spec", "--epsilon", "--delta", "--method", "--exact"],
    "sanitize": ["--spec", "--data", "--column", "--seed", "--output"],
    "analyze": ["--spec", "--epsilon", "--delta"],
    "convert": ["--spec", "--output", "--exact"],
    "optimal": ["--epsilon", "--delta", "--categories", "--output",
                "--exact"],
}

#: Runs of each subcommand over the files ``_write_inputs`` makes.
CLI_WALK = {
    "verify": [["verify", "--spec", "ham.spec", "--epsilon", "0.3",
                "--method", method, *exact]
               for method in ("auto", "reduced", "brute")
               for exact in ([], ["--exact"])],
    "sanitize": [["sanitize", "--spec", "ham.spec", "--data", "data.csv",
                  "--seed", "5"]],
    "analyze": [["analyze", "--spec", "ham.spec", "--epsilon", "1"]],
    "convert": [["convert", "--spec", "ham.spec", "--exact"]],
    "optimal": [["optimal", "--categories", "cats.txt", "--epsilon", "1",
                 "--delta", "0.1"]],
}


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = dpcat.cli.build_parser()._subparsers._group_actions
    return action.choices


def _write_inputs(root: Path) -> None:
    (root / "cats.txt").write_text("a\nb\nc\n")
    (root / "ham.spec").write_text("type = exponential\nutility = hamming\n"
                                   "k = 0.5\ncategories = cats.txt\nn = 2\n")
    (root / "data.csv").write_text("a\nc\nb\nb\na\n" * 20)


def test_cli_options_are_pinned():
    options = {name: [action.option_strings[-1] for action in sub._actions
                      if not isinstance(action, argparse._HelpAction)]
               for name, sub in _subcommands().items()}
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 21
    (method,) = [action for action in _subcommands()["verify"]._actions
                 if "--method" in action.option_strings]
    assert method.choices == ("auto", "reduced", "brute")


def test_every_subcommand_answers_the_same_twice(tmp_path):
    assert set(CLI_WALK) == set(_subcommands()), (
        "every subcommand needs runs in CLI_WALK")
    _write_inputs(tmp_path)
    for name, runs in CLI_WALK.items():
        for argv in runs:
            argv = [str(tmp_path / a) if a.endswith((".spec", ".csv", ".txt"))
                    else a for a in argv]
            answers = []
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    answers.append((dpcat.cli.main(argv), out.getvalue()))
            assert answers[0] == answers[1], argv
            assert answers[0][0] in (0, 1) and answers[0][1], argv
            if name != "sanitize":     # labels, not a report
                assert isinstance(json.loads(answers[0][1]), dict), argv


#: Each defaulted parameter of an exported function, or of the
#: constructor, a public method or a classmethod of an exported class.
LIBRARY_KEYWORDS = [
    "ConditionResult.__init__:trivial",
    "HammingUtility.__init__:e_k",
    "PrivacyParams.__init__:e_eps_exact",
    "PrivacyParams.__init__:delta_exact",
    "ProductSpec.__init__:row_utility",
    "SolutionMatrix.__init__:fractions",
    "SolutionMatrix.from_csv:exact",
    "SufficientSet.__init__:alpha_levels",
    "SufficientSet.__init__:partition",
    "TableUtility.__init__:assert_fixed_c",
    "VerificationReport.__init__:exact",
    "dp_holds_on_set:exact",
    "exp_dp_condition:e_k",
    "exp_dp_condition:exact",
    "expected_error:params",
    "load_database_csv:column",
    "load_spec_file:exact",
    "optimal_mechanism:exact",
    "product_dp_condition:p_exact",
    "product_dp_condition:exact",
    "sample_feasible_matrices:batch",
    "sample_feasible_matrices:max_batches",
    "sufficient_set:exact",
    "verify_bruteforce:exact",
    "verify_matrix:space",
    "verify_matrix:exact",
    "verify_reduced:exact",
]

#: The parameters of ``kernels.subset_scan``: (k, P) column stacks, with
#: the empty and the full set always left out, so no switch or form.
SUBSET_SCAN_PARAMETERS = ("p_a", "p_b", "e_eps", "delta")


#: The methods of ``dpcat.Count``: what a report prints (``__str__``), the
#: int behind it, perfbench's ``+=`` and the budget checks' comparisons
#: (``functools.total_ordering`` adds ``__le__``, ``__gt__``, ``__ge__``).
#: ``__hash__`` stays None.
COUNT_METHODS = {
    "__init__", "__int__", "__str__", "__repr__", "__bool__",
    "__add__", "__radd__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    "_cmp", "_sign",
}


def _library_keywords() -> list[str]:
    out = []
    for name in sorted(_exported()):
        obj = getattr(dpcat, name)
        if inspect.isclass(obj):
            members = [(f"{name}.__init__", obj.__init__)] + [
                (f"{name}.{attr}", getattr(obj, attr))
                for attr, value in vars(obj).items()
                if not attr.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(value, classmethod))]
        elif inspect.isfunction(obj):
            members = [(name, obj)]
        else:
            continue
        for label, fn in members:
            out += [f"{label}:{p.name}"
                    for p in inspect.signature(fn).parameters.values()
                    if p.default is not inspect.Parameter.empty]
    return out


def test_library_keywords_are_pinned():
    assert _library_keywords() == LIBRARY_KEYWORDS
    assert len(LIBRARY_KEYWORDS) == 27


def test_subset_scan_parameters_are_pinned():
    # the kernel is not exported, so LIBRARY_KEYWORDS does not see it
    parameters = inspect.signature(dpcat.kernels.subset_scan).parameters
    assert tuple(parameters) == SUBSET_SCAN_PARAMETERS
    assert all(p.default is inspect.Parameter.empty
               for p in parameters.values())


def test_count_methods_are_pinned():
    assert {name for name, value in vars(dpcat.Count).items()
            if callable(value)} == COUNT_METHODS
    assert dpcat.Count.__hash__ is None


def _verifier_readers(constant: str) -> tuple[dict[str, int], int]:
    """Functions of verifier.py that load ``constant``, with their number
    of loads, and the number of loads in the whole module."""
    tree = ast.parse((PACKAGE / "verifier.py").read_text(encoding="utf-8"))

    def reads(node) -> int:
        return sum(isinstance(name, ast.Name) and name.id == constant
                   and isinstance(name.ctx, ast.Load)
                   for name in ast.walk(node))
    return ({func.name: reads(func) for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) and reads(func)},
            reads(tree))


def test_the_tie_band_is_read_in_one_function():
    readers, total = _verifier_readers("TIE_BAND")
    assert list(readers) == ["_above"]
    assert readers["_above"] == total


def test_the_brute_force_limit_is_read_in_one_function():
    readers, total = _verifier_readers("BRUTE_FORCE_STATES")
    assert list(readers) == ["verify_bruteforce"]
    assert readers["verify_bruteforce"] == total


def test_the_verifier_reads_no_count_cap():
    assert _verifier_readers("COUNT_DIGIT_CAP") == ({}, 0)


def _called_names(func: ast.FunctionDef) -> set[str]:
    """Names the function calls, bare or as a module's attribute."""
    return {getattr(node.func, "id", getattr(node.func, "attr", None))
            for node in ast.walk(func) if isinstance(node, ast.Call)}


def test_the_tolerance_is_read_by_the_verdict_rule_alone():
    readers, total = _verifier_readers("TOLERANCE")
    assert readers == {"passes": 1, "tolerance": 1} and total == 2
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("verifier.py", "__init__.py"):  # __init__ exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(
            isinstance(node, ast.Name) and node.id == "TOLERANCE"
            or isinstance(node, ast.Attribute) and node.attr == "TOLERANCE"
            or isinstance(node, ast.alias) and node.name == "TOLERANCE"
            for node in ast.walk(tree)), path.name


#: The functions that turn a margin into a verdict, by module: each calls
#: ``verifier.passes``, and no other function does.
VERDICTS = {
    "verifier": {"_build_report", "dp_holds_on_set", "product_dp_condition"},
    "analysis": {"sample_feasible_matrices"},
}


def test_every_verdict_goes_through_the_rule():
    for path in sorted(PACKAGE.glob("*.py")):
        callers = {func.name for func in ast.walk(ast.parse(
                       path.read_text(encoding="utf-8")))
                   if isinstance(func, ast.FunctionDef)
                   and "passes" in _called_names(func)}
        assert callers == VERDICTS.get(path.stem, set()), path.name
    assert dpcat.analysis.passes is dpcat.verifier.passes
    # the hamming closed form decides as its symmetric parent
    tree = ast.parse((PACKAGE / "verifier.py").read_text(encoding="utf-8"))
    (exp_form,) = [func for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   and func.name == "exp_dp_condition"]
    assert "product_dp_condition" in _called_names(exp_form)


def _package_functions():
    """(module, qualified name, node) of every function in the package,
    methods as ``Class.method``."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods.update({id(func): f"{cls.name}.{func.name}"
                                for func in cls.body
                                if isinstance(func, ast.FunctionDef)})
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                yield path.stem, methods.get(id(func), func.name), func


def _raised_text(func: ast.FunctionDef) -> str:
    """The literal text of every ParameterRangeError the function raises."""
    return " ".join(
        part.value for node in ast.walk(func)
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ParameterRangeError"
        for part in ast.walk(node.exc)
        if isinstance(part, ast.Constant) and isinstance(part.value, str))


#: Each range of a symmetric parent: a pattern its refusal's text matches,
#: the one function that checks it, and the readers that call that one.
RANGE_CHECKS = {
    "flip probability": (r"flip probability|1/\(m\+1\)",
                         ("mechanisms", "_check_flip"),
                         {"symmetric_matrix", "k_from_p",
                          "product_dp_condition"}),
    "hamming k": (r"\bk (must|>=|at most)",
                  ("mechanisms", "HammingUtility.__init__"),
                  {"exp_dp_condition", "p_from_k"}),
}


@pytest.mark.parametrize("name", sorted(RANGE_CHECKS))
def test_each_parent_range_is_checked_in_one_function(name):
    pattern, checker, readers = RANGE_CHECKS[name]
    functions = list(_package_functions())
    assert [(module, qualified) for module, qualified, func in functions
            if re.search(pattern, _raised_text(func))] == [checker]
    callee = checker[1].split(".")[0]
    callers = {qualified for _, qualified, func in functions
               if callee in _called_names(func)}
    assert readers <= callers, readers - callers
