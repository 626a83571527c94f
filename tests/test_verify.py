import pytest

from catborel import supports, verify


def test_run_suites_refuses_max_n_below_two():
    for max_n in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            verify.run_suites(verify.SUITES, max_n=max_n)


def test_supports_suite_fails_when_classify_rejects_everything(monkeypatch):
    # at the smallest allowed max-n the supports checks still see n = 2
    monkeypatch.setattr(supports, "classify", lambda t: None)
    checks = verify.run_suites(("supports",), max_n=2)
    failed = {c.name for c in checks if not c.ok}
    assert {"full_product_scan", "witness_brackets", "basic_ideal_embedding"} <= failed
