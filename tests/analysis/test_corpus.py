"""Fixture-corpus tests: each RPR rule fires on its known-bad file and
stays silent on the known-good twin.

The fixtures live in ``tests/analysis/fixtures/`` and are never imported;
they exist purely as lint targets. Scoped rules (RPR005 determinism,
RPR006 broad handlers) are pointed at the bare fixture modules by widening
their scope to everything; RPR004's import-graph half gets its own mini
package (``spawnpkg/``) with ``worker_root`` overridden.
"""

from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

# Everything in scope: fixture modules are bare top-level names, far outside
# the repro.* default scopes.
CORPUS_CONFIG = LintConfig(
    determinism_scope=(),
    except_scope=(),
    worker_root="spawnpkg.worker",
)

RULES = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006")


@pytest.mark.parametrize("rule", RULES)
def test_rule_fires_on_bad_twin(rule: str) -> None:
    result = lint_paths([FIXTURES / f"{rule.lower()}_bad.py"], CORPUS_CONFIG)
    assert not result.errors
    fired = result.rules_fired()
    assert rule in fired, f"{rule} did not fire on its known-bad fixture"
    assert set(fired) == {rule}, f"unexpected rules on {rule} fixture: {fired}"


@pytest.mark.parametrize("rule", RULES)
def test_rule_silent_on_good_twin(rule: str) -> None:
    result = lint_paths([FIXTURES / f"{rule.lower()}_good.py"], CORPUS_CONFIG)
    assert not result.errors
    assert result.ok, [f.format() for f in result.findings]
    assert not result.suppressed


def test_expected_finding_counts() -> None:
    """Pin the exact per-rule counts so fixture edits stay deliberate."""
    bad = [FIXTURES / f"{rule.lower()}_bad.py" for rule in RULES]
    result = lint_paths(bad, CORPUS_CONFIG)
    assert result.rules_fired() == {
        "RPR001": 2,  # BadCache, BadCounter
        "RPR002": 1,  # FrozenPoint
        "RPR003": 2,  # multi-item with, nested with
        "RPR004": 5,  # Pool, get_context(), set_start_method, executor, os.fork
        "RPR005": 5,  # random.random, default_rng(), np.random.rand, time, now
        "RPR006": 3,  # bare, swallowed Exception, broad tuple + continue
    }


def test_findings_carry_location_and_format() -> None:
    path = FIXTURES / "rpr001_bad.py"
    result = lint_paths([path], CORPUS_CONFIG)
    finding = result.findings[0]
    assert finding.rule == "RPR001"
    assert finding.path == str(path)
    assert finding.line > 0 and finding.col > 0
    assert finding.format().startswith(f"{path}:{finding.line}:{finding.col}: RPR001 ")
    assert "BadCache" in finding.message


def test_spawnpkg_import_graph_flags_side_effects() -> None:
    """RPR004's project half: side effects reachable from the worker root."""
    result = lint_paths([FIXTURES / "spawnpkg"], CORPUS_CONFIG)
    assert not result.errors
    flagged_paths = {f.path for f in result.findings}
    assert flagged_paths == {str(FIXTURES / "spawnpkg" / "sidefx_bad.py")}
    assert result.rules_fired() == {"RPR004": 2}  # Lock() and Thread() at import
    messages = " ".join(f.message for f in result.findings)
    assert "import" in messages


def test_spawnpkg_silent_without_matching_root() -> None:
    """With the default worker root the fixture package is unreachable."""
    config = LintConfig(determinism_scope=(), except_scope=())
    result = lint_paths([FIXTURES / "spawnpkg"], config)
    assert result.ok


def test_scoped_rules_silent_outside_scope() -> None:
    """RPR005/RPR006(broad) stay quiet when the module is out of scope."""
    config = LintConfig(
        determinism_scope=("some.other.package",),
        except_scope=("some.other.package",),
    )
    result = lint_paths([FIXTURES / "rpr005_bad.py"], config)
    assert result.ok
    result = lint_paths([FIXTURES / "rpr006_bad.py"], config)
    # The bare `except:` is flagged everywhere; only broad handlers are scoped.
    assert result.rules_fired() == {"RPR006": 1}
