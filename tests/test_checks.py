"""The internal cross-checks are named errors that no interpreter flag removes."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import coverzeta
from coverzeta import PicardModule, VerificationError, build_report, derive
from coverzeta.cli import main
from coverzeta.specfile import BUNDLED, load_spec

PACKAGE = pathlib.Path(coverzeta.__file__).parent
GOLDENS = pathlib.Path(__file__).parent / "goldens"
README = pathlib.Path(__file__).parent.parent / "README.md"

# Each sabotage makes the eta(1) check alone fail.  It corrupts one side of
# it, a coefficient of the Kronecker-substitution route or of the Berkowitz
# group-ring determinant, both taken on the core that the unit pivots leave,
# or it drops that core, which the Laplacian never leaves empty.  Each
# defines the attribute it replaces (``module``, ``name``) and its
# replacement (``corrupted``); both are names in ``zeta``, which
# ``eta_at_one`` looks up when it runs.  ``zeta.unit_pivots`` is zeta's own
# name for the kernel, which ``snf.cokernel`` does not read.
SABOTAGES = {
    "substitution": """
import coverzeta.zeta as module
from coverzeta.groupring import GroupRingElement

name = "_substitution_determinant"
real = module._substitution_determinant

def corrupted(core, group):
    c = list(real(core, group).coeffs)
    c[1] += 1
    return GroupRingElement(group, tuple(c))
""",
    "berkowitz": """
import coverzeta.zeta as module

name = "berkowitz"
real = module.berkowitz

def corrupted(core, product):
    det = real(core, product)
    return (det[0] + 1,) + det[1:]
""",
    "core": """
import coverzeta.zeta as module

name = "unit_pivots"
real = module.unit_pivots

def corrupted(rows, ring):
    scale, ids, core, ops, pivots = real(rows, ring)
    return scale, ids, [], ops, pivots
""",
}


# Each corrupts the cokernel presentation that ``snf.cokernel`` hands to
# its certificate, as (factors, forms, generators), so that exactly one named
# check of the certificate fails on example1, whose Pic0 is Z/3 + Z/12.
CERTIFICATE_SABOTAGES = {
    "snf.cokernel_divisibility": lambda f, forms, gens: (f[::-1], forms[::-1], gens[::-1]),
    "snf.cokernel_order": lambda f, forms, gens: (f[:-1] + (2 * f[-1],), forms, gens),
    "snf.cokernel_relations": lambda f, forms, gens: (
        f,
        ((forms[0][0] + 1,) + forms[0][1:],) + forms[1:],
        gens,
    ),
    "snf.cokernel_generators": lambda f, forms, gens: (
        f,
        forms,
        (tuple(2 * x for x in gens[0]),) + gens[1:],
    ),
}

# Each of the next five replaces the Picard module the report builds with one
# that has one quantity corrupted after it is built and certified.

# Doubles the first invariant factor of Pic0 prime to p, so that only the
# class-number identity sees it.
CLASS_NUMBER_SABOTAGE = """
import coverzeta.herbrand as module

name = "PicardModule"
real = module.PicardModule

def corrupted(cover):
    pm = real(cover)
    i = next(i for i, d in enumerate(pm.factors) if d % cover.p)
    pm.factors = pm.factors[:i] + (2 * pm.factors[i],) + pm.factors[i + 1:]
    return pm
"""

# Drops the last basis class of C from the deck generator's matrix on C, so
# that the mod-p span of the Laplacian and the elimination modulo kappa
# disagree on the dimension of C.
QUOTIENT_SABOTAGE = """
import coverzeta.herbrand as module

name = "PicardModule"
real = module.PicardModule

def corrupted(cover):
    pm = real(cover)
    pm.deck = tuple(row[:-1] for row in pm.deck[:-1])
    return pm
"""

# Puts the identity in place of the deck generator's matrix on Pic0, so every
# layer rank of A lands on the trivial character while C keeps its eigenspaces.
ACTION_SABOTAGE = """
import coverzeta.herbrand as module

name = "PicardModule"
real = module.PicardModule

def corrupted(cover):
    pm = real(cover)
    r = len(pm.factors)
    pm.action = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    return pm
"""

# Makes the deck generator act on C as the identity, so the eigenspace of
# every nontrivial character value is 0 while the layer ranks of A stand.
DECK_SABOTAGE = """
import coverzeta.herbrand as module

name = "PicardModule"
real = module.PicardModule

def corrupted(cover):
    pm = real(cover)
    n = len(pm.deck)
    pm.deck = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return pm
"""

# Sends the first basis class of C to the sum of all three, on the tripled
# triangle below, where g fixes that class and swaps the other two: a fixed
# class goes to itself plus a fixed class, so g's fixed space on C drops from
# a plane to a line while its (-1)-eigenspace, the only nontrivial
# character's, stays a line.
FIXED_SPACE_SABOTAGE = """
import coverzeta.herbrand as module

name = "PicardModule"
real = module.PicardModule

def corrupted(cover):
    pm = real(cover)
    pm.deck = ((1, 1, 1),) + pm.deck[1:]
    return pm
"""

# Zeroes the first diagonal entry of every Laplacian read as sparse rows.  The
# cover's is read first, and its reduced Laplacian L0 then loses d_0 e_0 e_0^T:
# a rank-one drop leaves at most one eigenvalue below 0, and the zero
# diagonal entry beside a nonzero one forces one, so det L0 < 0 (or det L0 = 0
# when vertex 0 only meets the deleted vertex).
TREE_COUNT_SABOTAGE = """
from coverzeta.serre import SerreGraph as module

name = "laplacian_rows"
real = module.laplacian_rows

def corrupted(graph):
    rows = real(graph)
    del rows[0][0]
    return rows
"""

# Each corrupts what phase 1 of the Pic0 elimination (``snf.unit_pivots``
# over Z, under the names ``snf.cokernel`` and the Picard module look up)
# hands on, for the base graph and the cover alike.  Doubling the first row
# of the dense core doubles det L0, so the cokernel taken modulo it is larger
# than coker L0 and no coordinate forms of it kill L0; negating the sign of
# the pivot permutation makes det L0 negative.
CORE_SABOTAGES = {
    "snf.cokernel_relations": """
import coverzeta.picard as picard
import coverzeta.snf as snf

real = snf.unit_pivots

def corrupted(a, ring):
    unit, ids, core, ops, pivots = real(a, ring)
    if ring is snf.INTEGERS:
        core[:1] = [[2 * x for x in row] for row in core[:1]]
    return unit, ids, core, ops, pivots

targets = [(snf, "unit_pivots"), (picard, "unit_pivots")]
""",
    "picard.tree_count": """
import coverzeta.picard as picard
import coverzeta.snf as snf

real = snf.unit_pivots

def corrupted(a, ring):
    unit, ids, core, ops, pivots = real(a, ring)
    return (-unit if ring is snf.INTEGERS else unit), ids, core, ops, pivots

targets = [(snf, "unit_pivots"), (picard, "unit_pivots")]
""",
}


# Each corrupts the scale that the unit-pivot kernel hands to eta(1), which
# both of its routes share, so they agree.  ``eta_at_one`` looks the kernel
# up as ``zeta.unit_pivots``, which Pic0 does not read.
#
# Negating it negates eta(1).  The norm N_d of -eta(1) is (-1)^phi(d) N_d,
# and phi(d) over the divisors d > 1 of p - 1 sums to p - 2, which is odd:
# the product of the norms changes sign, and the class-number identity,
# which runs before any L-value, fails.
SCALE_SABOTAGE = """
import coverzeta.zeta as module

name = "unit_pivots"
real = module.unit_pivots

def corrupted(rows, ring):
    scale, ids, core, ops, pivots = real(rows, ring)
    return ring.neg(scale), ids, core, ops, pivots
"""

# Multiplying it by g^2, as a doubled pivot +-g^k would, multiplies eta(1) by
# the unit g^2, whose norms are all 1: every N_d stands, and the class-number
# identity passes.  chi(eta(1)) is multiplied by chi(g)^2, which is not 1 for
# a character of order above 2, while the evaluated Laplacian never passes
# through the kernel, so the L-value routes disagree.
UNIT_SABOTAGE = """
import coverzeta.zeta as module

name = "unit_pivots"
real = module.unit_pivots

def corrupted(rows, ring):
    scale, ids, core, ops, pivots = real(rows, ring)
    return scale[-2:] + scale[:-2], ids, core, ops, pivots
"""


def _kernel_mutation(old, new, target="True"):
    """A sabotage that installs the unit-pivot kernel with the line ``old`` of
    its source replaced by ``new``, under every name that looks it up; ``new``
    may read ``TARGET(ring)``, the condition ``target`` on the kernel's ring."""
    return f"""
import inspect
import coverzeta.picard as picard
import coverzeta.snf as snf
import coverzeta.zeta as zeta

source = inspect.getsource(snf.unit_pivots)
if {old!r} not in source:
    raise LookupError({old!r})
namespace = dict(vars(snf), TARGET=lambda ring: {target})
exec(source.replace({old!r}, {new!r}), namespace)
corrupted = namespace["unit_pivots"]
targets = [(snf, "unit_pivots"), (zeta, "unit_pivots"), (picard, "unit_pivots")]
"""


# Each puts one fault into the one unit-pivot kernel where all of its
# callers see it: Pic0, the cokernel of L0 over Z, C's span and eigenspaces
# over F_p, and eta(1) over Z[G].  It goes through ``snf._matching``, which
# the kernel looks up in ``snf``, or it replaces the kernel under the three
# names that the callers look up (``targets``).  The kernel certifies what
# it computed before it returns, so the check ``snf.unit_pivots`` catches a
# fault inside it on the first call, Pic0's; a wrapper that corrupts what
# the kernel returned is caught downstream.
KERNEL_FAULTS = {
    # The matching's sign negated: the certificate signs the pivots' product
    # by its own count of inversions.
    "negated_scale": """
import coverzeta.snf as module

name = "_matching"
real = module._matching

def corrupted(match, n):
    sign, ids, free = real(match, n)
    return -sign, ids, free
""",
    # The first pivot multiplied into the scale twice, so the scale is off
    # by that pivot wherever it is not 1: -1 over Z, or a unit +-g^k over
    # Z[G], and the certificate's product of the pivots disagrees.
    "doubled_pivot": _kernel_mutation(
        "scale = fma(zero, scale, pivot)",
        "scale = fma(zero, scale if match else fma(zero, scale, pivot), pivot)",
    ),
    # The core dropped, with its rows: det L0 = +-1 and Pic0 = 0, or eta(1)
    # with no core left.
    "dropped_core": """
import coverzeta.picard as picard
import coverzeta.snf as snf
import coverzeta.zeta as zeta

real = snf.unit_pivots

def corrupted(a, ring):
    scale, ids, core, ops, pivots = real(a, ring)
    return scale, [], [], ops, pivots

targets = [(snf, "unit_pivots"), (zeta, "unit_pivots"), (picard, "unit_pivots")]
""",
    # Each row step recorded with the multiplier's sign lost, row_i += m row_r
    # in place of row_i -= m row_r, so the certificate's replay of the steps
    # on a x misses B x.
    "op_multiplier": _kernel_mutation("ops.append((i, r, neg(m)))", "ops.append((i, r, m))"),
}

# A leaf on a vertex with two loops at p = 17.  Over Z the cover's first
# pivot is 1, so a doubled first pivot leaves Pic0 as it is; over Z[G] it is
# -g^15, whose norms multiply to 1, so of the checks downstream only the
# L-value routes would see it.  Its kernel calls take unit pivots and row
# steps over all three rings.
LEAF_SPEC = {
    "p": 17,
    "vertices": ["v0", "v1"],
    "edges": [
        {"from": "v0", "to": "v1", "voltage": 3},
        {"from": "v0", "to": "v0", "voltage": 6},
        {"from": "v0", "to": "v0", "voltage": 6},
    ],
}

# The theta graph with a loop at p = 5, voltages (1, 1, 2, 2): its report
# makes a kernel call without pivots over each ring, which returns its input
# as the core: the base's 1 x 1 reduced Laplacian over Z, its 2 x 2
# Laplacian over Z[G], and the cover's 3 x 3 phase-1 core, 0 mod 5, over F_p.
THETA_SPEC = {
    "p": 5,
    "vertices": ["a", "b"],
    "edges": [
        {"from": "a", "to": "b", "voltage": 1},
        {"from": "a", "to": "b", "voltage": 1},
        {"from": "a", "to": "b", "voltage": 2},
        {"from": "a", "to": "a", "voltage": 2},
    ],
}

# One fault inside the kernel for each part of its certificate, on the ring
# that a condition of ``RINGS`` picks, with the spec it runs on: the lowest
# other row in each pivot's column left uncleared there (structure), the
# first recorded multiplier plus one (row steps), the scale negated (scale),
# or, on a call without pivots, the first core entry plus one (no pivot).
RINGS = {
    "Z": "ring is snf.INTEGERS",
    "Z[G]": "isinstance(ring.zero, tuple)",
    "F_p": "not isinstance(ring.zero, tuple) and ring is not snf.INTEGERS",
}
CERTIFICATE_FAULTS = {
    "structure": (
        "for i in cols[c]:",
        "for i in sorted(cols[c])[bool(TARGET(ring)):]:",
        ("is not zero at the pivots", "are not units of a core"),
        LEAF_SPEC,
    ),
    "row steps": (
        "ops.append((i, r, neg(m)))",
        "ops.append((i, r, fma(neg(m), ring.one, ring.one)"
        " if TARGET(ring) and not ops else neg(m)))",
        ("the recorded steps do not take a to B",),
        LEAF_SPEC,
    ),
    "scale": (
        "    if sign < 0:",
        "    if (sign < 0) != TARGET(ring):",
        ("!= the signed product",),
        LEAF_SPEC,
    ),
    "no pivot": (
        "    core = [[rows[i].get(j, zero) for j in free] for i in ids]\n",
        "    core = [[rows[i].get(j, zero) for j in free] for i in ids]\n"
        "    if TARGET(ring) and not order and core:\n"
        "        core[0][0] = fma(core[0][0], ring.one, ring.one)\n",
        ("a call without pivots does not return a",),
        THETA_SPEC,
    ),
}

# Adds 1 to the determinant of every evaluated Laplacian, the second route of
# each L-value, so that it disagrees with chi(eta(1)) at the first character
# evaluated.  ``det_mod`` is the name in ``zeta`` that ``l_value`` looks up;
# the substitution route of eta(1) looks it up too, but modulo B^(p-1) - 1,
# which is even as B is odd, while the characters' moduli p^K are odd.
L_ROUTES_SABOTAGE = """
import coverzeta.zeta as module

name = "det_mod"
real = module.det_mod

def corrupted(rows, modulus):
    return real(rows, modulus) + modulus % 2
"""


# Adds 1 to the Bezout coefficient s of the diagonal sort's step on the
# summands (420, 7) of example2's Pic0, so that s 420 + t 7 is no longer
# gcd = 7: U loses determinant 1, and form 0 misreads generator 0.  The pair
# needs one gcd/lcm step; example1's (3, 12) needs none.
SORT_SABOTAGE = """
import coverzeta.snf as module

name = "_xgcd"
real = module._xgcd

def corrupted(a, b):
    g, s, t = real(a, b)
    return (g, s + 1, t) if (a, b) == (420, 7) else (g, s, t)
"""


# Negates the generated-subgroup criterion, so that it disagrees with the
# breadth-first search on every census row.
CONNECTIVITY_SABOTAGE = """
import coverzeta.census as module

name = "connected_by_voltage_criterion"
real = module.connected_by_voltage_criterion

def corrupted(p, fixed):
    return not real(p, fixed)
"""


# Keys every switching class by its gauge-fixed voltages in sorted order, so
# classes whose voltages differ by a permutation of the edges merge, and a
# row whose cover is not isomorphic to its class's first one would take that
# one's fields.  The voltages generate the same subgroup in any order, so the
# connectivity criterion, which reads them too, still holds.
SWITCHING_SABOTAGE = """
import coverzeta.census as module

name = "gauge"
real = module.gauge

def corrupted(spec):
    potential, fixed = real(spec)
    return potential, tuple(sorted(fixed))
"""


# Relabel the cover of a class whose key is not its orbit's representative
# R, key^m = R for a unit m mod p - 1, without the power map s -> s^m, or
# with m^-1 in place of m.  On the two-loop bouquet at p = 11 the first is
# caught at (1, 6), (1, 6)^9 = (1, 2), and the second at (1, 7),
# (1, 7)^3 = (1, 2), since 3^-1 = 7 mod 10; at p = 5 and 7 every unit is its
# own inverse, so only the first would show.
POWER_SABOTAGES = {
    "dropped": """
import coverzeta.census as module

name = "_relabeled_edges"
real = module._relabeled_edges

def corrupted(cover, potential, power):
    return real(cover, potential, 1)
""",
    "inverted": """
import coverzeta.census as module

name = "_relabeled_edges"
real = module._relabeled_edges

def corrupted(cover, potential, power):
    return real(cover, potential, pow(power, -1, cover.p - 1))
""",
}


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_readme_documents_every_check():
    raised = {
        node.args[0].value
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "VerificationError"
    }
    section = README.read_text(encoding="utf-8").split("### Exit code 4\n", 1)[1].split("\n#", 1)[0]
    documented = {
        name.strip().strip("`")
        for line in section.splitlines()
        if line.startswith("| `")
        for name in line.split("|")[1].split(",")
    }
    assert raised and raised == documented


def test_failed_check_exits_4_with_its_name(tmp_path, monkeypatch, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"vertices": ["v"], "edges": [{"from": "v", "to": "v"}] * 2}))
    for case, sabotage in SABOTAGES.items():
        with monkeypatch.context() as m:
            _install(sabotage, m)
            assert main(["analyze", "example3"]) == 4, case
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: check zeta.eta_routes failed:" in captured.err
            out = tmp_path / f"{case}.ndjson"
            assert main(["census", str(base), "--p", "5", "--out", str(out)]) == 4, case
            assert "error: check zeta.eta_routes failed:" in capsys.readouterr().err


def test_fixed_point_check_runs_when_C_is_large(tmp_path, monkeypatch, capsys):
    # A star of seven triple edges with a loop at its center, p = 3: C has
    # 3^14 classes, too many to list one by one, and the check still runs.
    leaves = [f"l{k}" for k in range(7)]
    edges = [{"from": "c", "to": "c", "voltage": 2}]
    edges += [{"from": "c", "to": leaf, "voltage": 1} for leaf in leaves for _ in range(3)]
    spec = tmp_path / "star.json"
    spec.write_text(json.dumps({"p": 3, "vertices": ["c", *leaves], "edges": edges}))
    cover = derive(load_spec(str(spec)))
    assert len(PicardModule(cover).deck) == 14
    with monkeypatch.context() as m:
        _install(DECK_SABOTAGE, m)
        with pytest.raises(VerificationError) as exc:
            build_report(cover)
    assert exc.value.check == "picard.fixed_point_sweep"
    _assert_sabotage_exits_4(
        DECK_SABOTAGE, str(spec), "picard.fixed_point_sweep", monkeypatch, capsys
    )


def test_fixed_point_check_covers_the_trivial_character(tmp_path, monkeypatch, capsys):
    # The triangle with every edge tripled, p = 3, one voltage 2: Pic0 is
    # Z/3 + Z/3 + Z/126, and C has a fixed plane and a (-1)-line.
    edges = [{"from": u, "to": v, "voltage": 1} for u, v in ("ab", "bc", "ca") for _ in range(3)]
    edges[-1]["voltage"] = 2
    spec = tmp_path / "triangle.json"
    spec.write_text(json.dumps({"p": 3, "vertices": ["a", "b", "c"], "edges": edges}))
    pm = PicardModule(derive(load_spec(str(spec))))
    assert pm.factors == (3, 3, 126)
    assert pm.deck == ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    _assert_sabotage_exits_4(
        FIXED_SPACE_SABOTAGE, str(spec), "picard.fixed_point_sweep", monkeypatch, capsys
    )


def _install(sabotage, m):
    """Run a sabotage's source and install its ``corrupted`` with the
    monkeypatch context m under each (module, name) its ``targets`` lists,
    or else under its one ``module`` and ``name``."""
    namespace = {}
    exec(sabotage, namespace)
    for module, name in namespace.get("targets") or [(namespace["module"], namespace["name"])]:
        m.setattr(module, name, namespace["corrupted"])


def _run_optimized(*args):
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-O", *args], capture_output=True, text=True, env=env, timeout=120
    )


def _run_sabotaged_optimized(sabotage, argv):
    """Run the CLI on argv in a fresh interpreter under -O, with the sabotage
    installed as ``_install`` installs it; the script exits 99 without -O."""
    script = "import sys\nif not sys.flags.optimize:\n    sys.exit(99)\n" + sabotage
    script += "for module, name in globals().get('targets') or [(module, name)]:\n"
    script += "    setattr(module, name, corrupted)\n"
    script += f"from coverzeta.cli import main\nsys.exit(main({argv!r}))\n"
    return _run_optimized("-c", script)


def test_checks_survive_python_O():
    for sabotage in SABOTAGES.values():
        sabotaged = _run_sabotaged_optimized(sabotage, ["analyze", "example3"])
        assert sabotaged.returncode == 4, sabotaged.stderr
        assert "error: check zeta.eta_routes failed:" in sabotaged.stderr
    for name in BUNDLED:
        run = _run_optimized("-m", "coverzeta.cli", "analyze", name)
        assert run.returncode == 0, run.stderr
        assert run.stdout == (GOLDENS / f"{name}_report.json").read_text()


@pytest.mark.parametrize("check", sorted(CERTIFICATE_SABOTAGES))
def test_certificate_checks_exit_4(check, monkeypatch, capsys):
    import coverzeta.snf as snf

    real = snf.Cokernel
    corrupt = CERTIFICATE_SABOTAGES[check]
    monkeypatch.setattr(snf, "Cokernel", lambda *parts: real(*corrupt(*parts)))
    assert main(["analyze", "example1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: check {check} failed:" in captured.err


def _assert_sabotage_exits_4(sabotage, example, check, monkeypatch, capsys):
    """Install a sabotage and require exit 4 naming the check, in process and
    under -O; returns both error outputs."""
    with monkeypatch.context() as m:
        _install(sabotage, m)
        assert main(["analyze", example]) == 4
    err = capsys.readouterr().err
    assert f"error: check {check} failed:" in err
    sabotaged = _run_sabotaged_optimized(sabotage, ["analyze", example])
    assert sabotaged.returncode == 4, sabotaged.stderr
    assert f"error: check {check} failed:" in sabotaged.stderr
    return err, sabotaged.stderr


def test_class_number_check_exits_4(monkeypatch, capsys):
    # example2 has Pic0 = Z/7 + Z/420 at p = 5: the 7 is doubled, the
    # p-primary part and every check that reads it are unchanged.
    _assert_sabotage_exits_4(
        CLASS_NUMBER_SABOTAGE, "example2", "picard.class_number", monkeypatch, capsys
    )


def test_generator_action_check_exits_4(monkeypatch, capsys):
    # example4 has A = (Z/11)^4, whose pieces at characters 3 and 7 are
    # planes: with g acting as the identity, their layer ranks read 0.
    _assert_sabotage_exits_4(
        ACTION_SABOTAGE, "example4", "picard.fixed_point_sweep", monkeypatch, capsys
    )


def test_quotient_dimension_check_exits_4(monkeypatch, capsys):
    # example4 has A = (Z/11)^4, so C loses one of its four basis classes.
    _assert_sabotage_exits_4(
        QUOTIENT_SABOTAGE, "example4", "picard.quotient_dimension", monkeypatch, capsys
    )


@pytest.mark.parametrize("example", sorted(BUNDLED))
def test_kernel_sign_fault_exits_4(example, monkeypatch, capsys):
    _assert_sabotage_exits_4(SCALE_SABOTAGE, example, "picard.class_number", monkeypatch, capsys)


@pytest.mark.parametrize("example", sorted(BUNDLED))
def test_kernel_unit_fault_exits_4(example, monkeypatch, capsys):
    # The examples are at p = 5 and 11, so g^2 is not 1.
    _assert_sabotage_exits_4(UNIT_SABOTAGE, example, "zeta.l_routes", monkeypatch, capsys)


@pytest.mark.parametrize("example", sorted(BUNDLED))
def test_berkowitz_fault_exits_4_on_every_example(example, monkeypatch, capsys):
    # The sabotage corrupts the Berkowitz determinant of the core that the
    # unit pivots leave.  The core of a Laplacian is never empty: the product
    # of the pivots is a unit, of augmentation +-1, while det L has
    # augmentation det of the base Laplacian, 0.
    _assert_sabotage_exits_4(
        SABOTAGES["berkowitz"], example, "zeta.eta_routes", monkeypatch, capsys
    )


@pytest.mark.parametrize("example", sorted(BUNDLED))
def test_l_value_fault_exits_4_on_every_example(example, monkeypatch, capsys):
    _assert_sabotage_exits_4(L_ROUTES_SABOTAGE, example, "zeta.l_routes", monkeypatch, capsys)


def test_tree_count_check_exits_4(monkeypatch, capsys):
    _assert_sabotage_exits_4(
        TREE_COUNT_SABOTAGE, "example1", "picard.tree_count", monkeypatch, capsys
    )


@pytest.mark.parametrize("check", sorted(CORE_SABOTAGES))
def test_phase_1_faults_exit_4(check, monkeypatch, capsys):
    # example2's base graph and cover both leave a core after phase 1.
    _assert_sabotage_exits_4(CORE_SABOTAGES[check], "example2", check, monkeypatch, capsys)


@pytest.mark.parametrize("example", sorted(BUNDLED))
def test_kernel_negated_scale_exits_4(example, monkeypatch, capsys):
    _assert_sabotage_exits_4(
        KERNEL_FAULTS["negated_scale"], example, "snf.unit_pivots", monkeypatch, capsys
    )


@pytest.mark.parametrize(
    "example, check", [("example1", "snf.unit_pivots"), ("leaf", "snf.unit_pivots")]
)
def test_kernel_doubled_pivot_exits_4(example, check, tmp_path, monkeypatch, capsys):
    if example == "leaf":
        example = str(tmp_path / "leaf.json")
        pathlib.Path(example).write_text(json.dumps(LEAF_SPEC))
    _assert_sabotage_exits_4(KERNEL_FAULTS["doubled_pivot"], example, check, monkeypatch, capsys)


@pytest.mark.parametrize(
    "example, check",
    [
        ("example1", "picard.quotient_dimension"),
        ("example2", "picard.tree_count"),
        ("example3", "picard.quotient_dimension"),
        ("example4", "picard.tree_count"),
    ],
)
def test_kernel_dropped_core_exits_4(example, check, monkeypatch, capsys):
    # Which check fires first depends on the cover: det L0 = -1, or Pic0 = 0
    # beside the nonzero C that the columns left by the first phase span.
    _assert_sabotage_exits_4(KERNEL_FAULTS["dropped_core"], example, check, monkeypatch, capsys)


@pytest.mark.parametrize("example", sorted(BUNDLED))
def test_kernel_op_multiplier_exits_4(example, monkeypatch, capsys):
    _assert_sabotage_exits_4(
        KERNEL_FAULTS["op_multiplier"], example, "snf.unit_pivots", monkeypatch, capsys
    )


@pytest.mark.parametrize("part", sorted(CERTIFICATE_FAULTS))
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_certificate_part_catches_its_kernel_fault(ring, part, tmp_path, monkeypatch, capsys):
    # The leaf at p = 17 has unit pivots and row steps over all three rings,
    # and the theta graph a call without pivots over each.
    old, new, messages, spec = CERTIFICATE_FAULTS[part]
    example = tmp_path / "spec.json"
    example.write_text(json.dumps(spec))
    sabotage = _kernel_mutation(old, new, RINGS[ring])
    check = "snf.unit_pivots"
    for err in _assert_sabotage_exits_4(sabotage, str(example), check, monkeypatch, capsys):
        assert any(message in err for message in messages), err


# The kernel over the tests' Z[G][u]/(u^3), G of order 4, with u (basis
# vector 4) added to the first recorded multiplier: the rows it computes are
# right and the record is wrong by u times the pivot row, which is not 0.
# Each 3 x 3 matrix has a unit +-g^k in each row and no zero entry, so the
# first pivot records two row steps.  A certificate that reads u as 0 lets
# this through.  The script sets ``caught``, the number of matrices on which
# the mutated kernel raised the check ``snf.unit_pivots``.
U_MULTIPLIER_FAULT = _kernel_mutation(
    "ops.append((i, r, neg(m)))",
    "ops.append((i, r, fma(neg(m), ring.one, tuple(int(k == 4) for k in range(len(zero))))"
    " if not ops else neg(m)))",
) + """
import random
from coverzeta.arith import VerificationError
from reference import truncated_ring

ring, rng, caught = truncated_ring(4, 3), random.Random(38), 0
for _ in range(25):
    entry = lambda: tuple(rng.choice([-2, -1, 1, 2]) for _ in ring.zero)
    a = [{j: entry() for j in range(3)} for _ in range(3)]
    for row in a:
        k, j = rng.randrange(4), rng.randrange(3)
        row[j] = tuple(rng.choice([-1, 1]) * (i == k) for i in range(len(ring.zero)))
    if not snf.unit_pivots(a, ring)[3]:
        raise LookupError("no row step recorded")
    try:
        corrupted(a, ring)
    except VerificationError as exc:
        caught += exc.check == "snf.unit_pivots" and "do not take a to B" in str(exc)
"""


def test_certificate_sees_every_coordinate_of_a_multiplier():
    namespace = {}
    exec(U_MULTIPLIER_FAULT, namespace)
    assert namespace["caught"] == 25
    script = f"import sys\nsys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})\n"
    script += "if not sys.flags.optimize:\n    sys.exit(99)\n" + U_MULTIPLIER_FAULT
    run = _run_optimized("-c", script + "sys.exit(0 if caught == 25 else 1)\n")
    assert run.returncode == 0, run.stderr


def test_diagonal_sort_fault_exits_4(monkeypatch, capsys):
    import coverzeta.snf as snf

    steps = []
    real = snf._sort_diagonal
    monkeypatch.setattr(snf, "_sort_diagonal", lambda gs, m: steps.append(gs) or real(gs, m))
    assert main(["analyze", "example2"]) == 0
    assert [420, 7] in steps
    capsys.readouterr()
    _assert_sabotage_exits_4(
        SORT_SABOTAGE, "example2", "snf.cokernel_generators", monkeypatch, capsys
    )


def _assert_census_sabotage_exits_4(
    sabotage, check, tmp_path, monkeypatch, capsys, budget=None, p=5
):
    """Install a sabotage and require ``census`` on the two-loop bouquet at
    p to exit 4 naming the check, in process and under -O.  With a budget,
    an unsabotaged run first writes that many rows, which the sabotaged
    runs resume from."""
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"vertices": ["v"], "edges": [{"from": "v", "to": "v"}] * 2}))
    out = tmp_path / "census.ndjson"
    argv = ["census", str(base), "--p", str(p), "--out", str(out)]
    written = b""
    if budget is not None:
        assert main(argv + ["--budget", str(budget)]) == 0
        written = out.read_bytes()
    with monkeypatch.context() as m:
        _install(sabotage, m)
        assert main(argv) == 4
    assert f"error: check {check} failed:" in capsys.readouterr().err
    out.write_bytes(written)
    sabotaged = _run_sabotaged_optimized(sabotage, argv)
    assert sabotaged.returncode == 4, sabotaged.stderr
    assert f"error: check {check} failed:" in sabotaged.stderr


def test_census_connectivity_check_exits_4(tmp_path, monkeypatch, capsys):
    _assert_census_sabotage_exits_4(
        CONNECTIVITY_SABOTAGE, "census.connectivity", tmp_path, monkeypatch, capsys
    )


def test_census_switching_check_exits_4(tmp_path, monkeypatch, capsys):
    # On the bouquet every voltage is gauge-fixed: (1, 2) is the first
    # connected assignment, and (2, 1), keyed with it, has another cover.
    _assert_census_sabotage_exits_4(
        SWITCHING_SABOTAGE, "census.switching", tmp_path, monkeypatch, capsys
    )


def test_census_switching_check_exits_4_on_a_seeded_class(tmp_path, monkeypatch, capsys):
    # A first run writes rows 0..11, (1, 1) to (3, 4), which hold the first
    # assignment (a, b), a < b, of every pair the sabotage merges.  The
    # resumed run meets (4, 1) first, keyed with the written (1, 4): only
    # the class table seeded from the file can fail it, since the resumed
    # run builds no class that a later row of its own shares.
    _assert_census_sabotage_exits_4(
        SWITCHING_SABOTAGE, "census.switching", tmp_path, monkeypatch, capsys, budget=12
    )


@pytest.mark.parametrize("case", sorted(POWER_SABOTAGES))
def test_census_power_map_check_exits_4(case, tmp_path, monkeypatch, capsys):
    _assert_census_sabotage_exits_4(
        POWER_SABOTAGES[case], "census.switching", tmp_path, monkeypatch, capsys, p=11
    )
