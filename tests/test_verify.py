import pytest

from catborel import ideals, sequences, supports, verify


def test_run_suites_refuses_max_n_below_two():
    for max_n in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            verify.run_suites(verify.SUITES, max_n=max_n)


def test_supports_suite_fails_when_classify_rejects_everything(monkeypatch):
    # at the smallest allowed max-n the supports checks still see n = 2
    # and a rejected quadruple fails the witness checks instead of raising
    monkeypatch.setattr(supports, "classify", lambda p, q, p_prime, q_prime: None)
    checks = verify.run_suites(("supports",), max_n=2)
    failed = {c.name for c in checks if not c.ok}
    assert {
        "full_product_scan", "witness_brackets", "basic_ideal_embedding", "level_two_witnesses"
    } <= failed


def test_bracket_checks_fail_on_naive_witnesses(monkeypatch):
    # the layers at face value, with full Cartans at both degrees, are
    # stable at n <= 2 but not for some shape I and II quadruples at n = 3,
    # at level one or level two; both checks reach n = 3 even at max-n 2
    monkeypatch.setattr(supports, "build_witness", supports.assemble_naive_span)
    for max_n in (2, 3):
        checks = verify.run_suites(("supports",), max_n=max_n)
        failed = {c.name for c in checks if not c.ok}
        assert failed == {"witness_brackets", "level_two_witnesses"}, max_n


def test_listing_checks_fail_when_the_listings_are_empty(monkeypatch):
    # a check that examines no object fails; a negative control that still
    # fails does not count as an examined object
    monkeypatch.setattr(ideals, "basic_ideals", lambda n: ())
    monkeypatch.setattr(supports, "enumerate_classes", lambda n: [])
    checks = verify.run_suites(("ideals", "supports"), max_n=4)
    failed = {c.name for c in checks if not c.ok}
    assert failed == {
        "enumeration_matches_formulas", "encoding_round_trips", "generator_count_two_ways",
        "quasi_abelian_bracket_oracle", "qnd_two_ways", "matrix_oracle",
        "class_counts_pinned", "layer_restrictions", "witness_brackets",
        "basic_ideal_embedding", "level_two_witnesses",
    }


def test_qnd_check_fails_when_the_closed_form_row_is_off(monkeypatch):
    # qnd_two_ways holds the closed-form row to the pair scan per n
    row = sequences.qnd_row

    def off_by_one(n):
        for k, count in row(n):
            yield k, count + (k == n)

    monkeypatch.setattr(sequences, "qnd_row", off_by_one)
    checks = verify.run_suites(("ideals",), max_n=2)
    assert {c.name for c in checks if not c.ok} == {"qnd_two_ways"}


def test_enumeration_check_fails_when_a_production_record_is_off(monkeypatch):
    # enumeration_matches_formulas holds the records enumerate-basic prints
    # to ideal_record over the listed ideals, per n
    records = ideals.basic_records

    def off_by_one(n):
        for k, record in enumerate(records(n)):
            yield dict(record, qnd=record["qnd"] + (k == 0))

    monkeypatch.setattr(ideals, "basic_records", off_by_one)
    checks = verify.run_suites(("ideals",), max_n=2)
    assert {c.name for c in checks if not c.ok} == {"enumeration_matches_formulas"}
