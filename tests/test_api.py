"""The package's public surface: its names are exactly the library modules'
__all__, every exported name resolves, the SC engine's per-node helpers stay
private to sctree, and every bit packing in the package is bitops'
little-endian row format, and one formatter writes every enumeration file
record and every spec file's field lines, one function raises each of the
0/1 input errors, the integer rule and each other value rule, every public
function has a row in the value-rule table, one function owns the
reverse-decision rule and one the exact count, the CLI's command table owns
each flag's least value, and the CLI leaves the packed word layout to
bitops."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import polarmhw

# the modules whose __all__ a profiler may walk, wrapping every name in it
MODULES = ("construction", "bound", "bitops", "sctree", "listdec", "mhw", "channel", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"polarmhw.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_names_are_the_library_modules_all():
    # the package re-exports each library module's __all__, no more and no
    # less, so every name a profiler wraps is a package name and back
    public = {
        name
        for name, value in vars(polarmhw).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    library = [m for m in MODULES if m != "cli"]
    assert public == {n for m in library for n in importlib.import_module(f"polarmhw.{m}").__all__}


def test_every_public_function_has_a_value_rule_row():
    # the value-rule property varies each integer and float parameter that
    # its table names, so a public function without a row escapes it
    from test_value_rules import VALUE_RULES

    library = [importlib.import_module(f"polarmhw.{m}") for m in MODULES if m != "cli"]
    functions = {n for mod in library for n in mod.__all__ if inspect.isfunction(getattr(mod, n))}
    assert functions - set(VALUE_RULES) == set()
    assert set(VALUE_RULES) - functions == {"CodeSpec", "MhwResult"}


def test_acceptance_imports_resolve_on_the_package():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "polarmhw"
        for alias in node.names
    ]
    assert names
    assert [name for name in names if not hasattr(polarmhw, name)] == []


def test_sc_node_helpers_are_not_package_names():
    for name in ("f_combine", "g_combine", "beta_combine", "hard_decision"):
        assert not hasattr(polarmhw, name), name
        assert name not in importlib.import_module("polarmhw.sctree").__all__


def test_every_bit_packing_call_is_little_endian():
    # a second packed row format (numpy's default big-endian bit order) would
    # need its own sort key and its own conversions
    calls = []
    for path in sorted(Path(polarmhw.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(node, ast.Call) and name in ("packbits", "unpackbits"):
                orders = [k.value for k in node.keywords if k.arg == "bitorder"]
                ok = [getattr(v, "value", None) for v in orders] == ["little"]
                calls.append((path.name, node.lineno, ok))
    assert calls
    assert [call for call in calls if not call[2]] == []


def formatters(prefixes):
    """(file, innermost enclosing function) of each f-string in the package
    that puts a value right after a text ending in one of prefixes."""
    found = []
    for path in sorted(Path(polarmhw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Lambda))]
        for node in ast.walk(tree):
            parts = node.values if isinstance(node, ast.JoinedStr) else []
            texts = [isinstance(a, ast.Constant) and a.value.endswith(prefixes) for a in parts]
            if any(t and isinstance(b, ast.FormattedValue) for t, b in zip(texts, parts[1:])):
                owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(owners, key=lambda f: f.lineno, default=None)
                found.append((path.name, getattr(owner, "name", None)))
    return found


def test_one_formatter_writes_enumeration_records():
    # the reader checks each record against mhw._records' line for its u; a
    # second formatter (an f-string with a value right after "msg=") could
    # drift from it
    assert formatters(("msg=",)) == [("mhw.py", "_records")]


def test_one_formatter_writes_spec_fields():
    # the same for the spec reader, which checks each field line against
    # construction._spec_lines' line for the spec it holds
    assert formatters(("N = ", "construction = ", "A = ")) == [("construction.py", "_spec_lines")] * 3


def raisers(text):
    """(file, innermost enclosing function) of each raise statement in the
    package whose source holds text."""
    found = []
    for path in sorted(Path(polarmhw.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and text in ast.unparse(node):
                owners = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, max(owners, key=lambda f: f.lineno).name))
    return found


def test_one_function_owns_each_zero_one_rule():
    # encode, sc_replay, scl_decode and subtree_input_llr each read a 0/1
    # vector through these two checks; a second copy could truncate again
    assert raisers("must be a 0/1 vector") == [("bitops.py", "_check_bits")]
    assert raisers("at frozen position") == [("sctree.py", "_check_forced")]
    # a bound term is bound_count(spec).triggers[k].term, not a second kernel run
    assert not hasattr(polarmhw, "per_subset_bound")
    assert not hasattr(importlib.import_module("polarmhw.bound"), "per_subset_bound")


# the integer checks that bitops._check_int replaced
FOLDED_CHECKS = (
    "_check_integers", "_check_index", "_check_K", "_check_threads", "_check_max_list_used",
    "_check_list_size",
)


def test_one_function_owns_each_value_rule():
    # every integer argument (a length, index, count, seed, list size, thread
    # count, maxListUsed or position) is read through bitops._check_int, the
    # one place that decides what an integer is and refuses the rest
    assert raisers("must be an integer") == [("bitops.py", "_check_int")]
    assert raisers("must be {bounds}") == [("bitops.py", "_check_int")]
    assert package_nodes(lambda node: ast.unparse(node) == "np.integer") == ["bitops.py"]
    left = [(m, name) for m in MODULES for name in FOLDED_CHECKS
            if hasattr(importlib.import_module(f"polarmhw.{m}"), name)]
    assert left == []
    assert raisers("--design-ebn0 applies only") == [("cli.py", "_design_point")]
    # the estimate's count comes from its source, never from the caller
    fer_estimate = importlib.import_module("polarmhw.channel").fer_estimate
    assert list(inspect.signature(fer_estimate).parameters) == ["spec", "ebn0_db", "source"]


# the error line for a value below each flag's least value
LEAST_MESSAGES = (
    "--list-size must be >= 1",
    "--trials must be >= 1",
    "--seed must be nonnegative",
    "--max-triggers and --max-members must be >= 1",
)


def test_one_table_entry_owns_each_lower_bound():
    # the CLI's command table states each least value and its error line once,
    # and no command checks a flag value against a constant by hand
    tree = ast.parse((Path(polarmhw.__file__).parent / "cli.py").read_text())
    literals = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert {m: literals.count(m) for m in LEAST_MESSAGES} == dict.fromkeys(LEAST_MESSAGES, 1)
    assert raisers("thread count must be >= 1") == [("cli.py", "_resolve_threads")]

    def flag(node):
        return isinstance(node, ast.Attribute) and ast.unparse(node.value) == "args"

    def constant(node):
        return isinstance(node, ast.Constant) and node.value is not None

    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name[:4] == "cmd_"]
    assert len(commands) == 6
    compared = [
        (command.name, ast.unparse(node))
        for command in commands
        for node in ast.walk(command)
        if isinstance(node, ast.Compare)
        and any(map(flag, [node.left, *node.comparators]))
        and any(map(constant, [node.left, *node.comparators]))
    ]
    assert compared == []


def package_nodes(match):
    """The file of each syntax-tree node in the package for which match holds."""
    return [
        path.name
        for path in sorted(Path(polarmhw.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if match(node)
    ]


def compared(node, op, value):
    """The left side of node, if node is `<left> <op> <value>`, else None."""
    if isinstance(node, ast.Compare) and [type(o) for o in node.ops] == [op]:
        if ast.unparse(node.comparators[0]) == value:
            return ast.unparse(node.left)
    return None


def test_one_function_owns_the_reverse_decision_rule():
    # a bit against the sign of a nonzero leaf LLR, on arrays, is written once
    def rule(node):
        # np.where(<bits> == 1, <llr> > 0, <llr> < 0)
        if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.where"):
            return False
        if len(node.args) != 3 or compared(node.args[0], ast.Eq, "1") is None:
            return False
        llr = compared(node.args[1], ast.Gt, "0")
        return llr is not None and llr == compared(node.args[2], ast.Lt, "0")

    assert package_nodes(rule) == ["listdec.py"]


def test_one_function_owns_the_exact_count():
    # fer_estimate, render_fer_csv and sweep read the exact count through
    # mhw._exact_count, never off a zero-split enumeration of their own
    def read(node):
        # enumerate_zero_split(...).count
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "count"
            and isinstance(node.value, ast.Call)
            and ast.unparse(node.value.func).split(".")[-1] == "enumerate_zero_split"
        )

    assert package_nodes(read) == ["mhw.py"]


def test_cli_leaves_the_word_layout_to_bitops():
    text = (Path(polarmhw.__file__).parent / "cli.py").read_text()
    assert [token for token in ("// 64", "% 64", "bitwise_count") if token in text] == []
