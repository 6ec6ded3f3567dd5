"""Every rule fires on its crafted fixture and honors suppression.

Each fixture file under ``fixtures/`` marks violating lines with a
trailing ``# VIOLATION <RULE-ID>`` comment and suppressed twins with
``# repro: noqa[RULE-ID]``, so the expected finding set is read from
the fixture itself — adding a case to a fixture automatically extends
the test.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.lint.engine import lint_paths

from .conftest import FIXTURES

_VIOLATION_RE = re.compile(r"#\s*VIOLATION\s+(?P<rule>[A-Z]+\d+)")

FIXTURE_RULES = {
    "det001_global_rng.py": "DET001",
    "det002_unseeded_rng.py": "DET002",
    "det003_wall_clock.py": "DET003",
    "det004_set_iteration.py": "DET004",
    "det005_mutable_default.py": "DET005",
    "tel001_unguarded_telemetry.py": "TEL001",
    "par001_backend_parity.py": "PAR001",
    "num001_float_equality.py": "NUM001",
    "num002_twin_numerics.py": "NUM002",
    "res001_exception_hygiene.py": "RES001",
}


def _expected_violations(path: Path) -> set[tuple[str, int]]:
    expected: set[tuple[str, int]] = set()
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        match = _VIOLATION_RE.search(text)
        if match:
            expected.add((match.group("rule"), lineno))
    return expected


def test_every_rule_has_a_fixture():
    present = {p.name for p in FIXTURES.glob("*.py")}
    assert set(FIXTURE_RULES) <= present


@pytest.mark.parametrize("fixture_name,rule_id", sorted(FIXTURE_RULES.items()))
def test_rule_fires_on_fixture_and_respects_noqa(fixture_name, rule_id):
    path = FIXTURES / fixture_name
    expected = _expected_violations(path)
    assert expected, f"{fixture_name} marks no violations"

    result = lint_paths([path])
    found = {(f.rule, f.line) for f in result.findings}
    # exactly the marked lines fire — nothing more, nothing less
    assert found == expected
    assert all(rule == rule_id for rule, _ in expected)

    # the suppressed twin(s) were recorded as suppressed, not missed
    suppressed_rules = {f.rule for f in result.suppressed}
    assert rule_id in suppressed_rules


def test_fixtures_cover_at_least_six_rules():
    assert len(set(FIXTURE_RULES.values())) >= 6


def test_rules_do_not_cross_fire():
    """Each fixture triggers only its own rule (no false positives)."""
    for fixture_name, rule_id in FIXTURE_RULES.items():
        result = lint_paths([FIXTURES / fixture_name])
        assert {f.rule for f in result.findings} == {rule_id}, fixture_name


# ------------------------------------------------------------- edge cases
def test_det001_ignores_generator_method_draws(tmp_path):
    from .conftest import lint_source

    code = (
        "import numpy as np\n"
        "def f(rng):\n"
        "    rng = np.random.default_rng(3)\n"
        "    return rng.random() + rng.normal()\n"
    )
    assert lint_source(tmp_path, code).findings == []


def test_det002_seed_keyword_counts_as_seeded(tmp_path):
    from .conftest import lint_source

    code = "import numpy as np\nr = np.random.default_rng(seed=4)\n"
    assert lint_source(tmp_path, code).findings == []


def test_det003_resolves_import_aliases(tmp_path):
    from .conftest import lint_source

    code = "from time import time as now\nt = now()\n"
    result = lint_source(tmp_path, code)
    assert [f.rule for f in result.findings] == ["DET003"]


def test_det004_sorted_wrapping_is_clean(tmp_path):
    from .conftest import lint_source

    code = "for x in sorted(set([3, 1, 2])):\n    print(x)\n"
    assert lint_source(tmp_path, code).findings == []


def test_par001_silent_without_backends_dict(tmp_path):
    from .conftest import lint_source

    code = "class Foo:\n    pass\nREGISTRY = {'foo': Foo}\n"
    assert lint_source(tmp_path, code).findings == []


def test_num001_integer_comparisons_are_clean(tmp_path):
    from .conftest import lint_source

    code = "def f(n):\n    return n == 3 or n != 0\n"
    assert lint_source(tmp_path, code).findings == []


def _lint_module(tmp_path, dotted: str, code: str):
    target = tmp_path.joinpath(*dotted.split(".")).with_suffix(".py")
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(code)
    return [f.rule for f in lint_paths([target]).findings]


def test_num002_network_rule_is_scoped_to_network_packages(tmp_path):
    code = "import math\n\ndef f(x):\n    return math.tanh(x)\n"
    for package in ("neat", "compile", "inax"):
        assert _lint_module(tmp_path, f"repro.{package}.act", code) == [
            "NUM002"
        ]
    # the RL baselines and the env oracles may use math freely
    assert _lint_module(tmp_path, "repro.rl.act", code) == []
    assert _lint_module(tmp_path, "repro.envs.act", code) == []


def test_num002_pow_rule_is_scoped_to_batch_kernels(tmp_path):
    code = "def f(x):\n    return x**2\n"
    assert _lint_module(tmp_path, "repro.envs.batch", code) == ["NUM002"]
    # a scalar oracle keeps its own arithmetic (and its env stays on
    # the scalar batch)
    assert _lint_module(tmp_path, "repro.envs.cartpole", code) == []
