import pytest

from claimgraph.model import (
    CAUSAL_METHODS,
    KNOWN_NONCAUSAL_METHODS,
    METHOD_ALIASES,
    ClaimEdge,
    PaperRecord,
    is_causal_methods,
    normalize_code,
    normalize_method_tag,
    normalize_title,
    unknown_method_tags,
)


def test_normalize_code_uppercases():
    assert normalize_code("d31") == "D31"
    assert normalize_code(" J62 ") == "J62"
    assert normalize_code("A1") == "A1"


@pytest.mark.parametrize("bad", ["", "31", "DD1", "D311", "D", "d3x", "1D"])
def test_normalize_code_rejects_malformed(bad):
    with pytest.raises(ValueError):
        normalize_code(bad)


@pytest.mark.parametrize("raw,canon", [
    ("did", "DID"),
    ("Diff-in-Diff", "DID"),
    ("difference-in-differences", "DID"),
    ("2SLS", "IV/2SLS"),
    ("iv", "IV/2SLS"),
    ("instrumental variables", "IV/2SLS"),
    ("RCT", "RCT/EXPERIMENT"),
    ("randomized experiment", "RCT/EXPERIMENT"),
    ("experiment", "RCT/EXPERIMENT"),
    ("rd", "RDD"),
    ("regression discontinuity", "RDD"),
    ("event  study", "EVENT STUDY"),
    ("synthetic   control", "SYNTHETIC CONTROL"),
])
def test_method_aliases_resolve_to_whitelist(raw, canon):
    assert normalize_method_tag(raw) == canon
    assert canon in CAUSAL_METHODS
    assert is_causal_methods([raw])


@pytest.mark.parametrize("raw", [
    "OLS", "ols", "Panel", "theoretical", "Simulations",
    "structural estimation", "Calibration", "descriptive",
])
def test_noncausal_tags_stay_noncausal(raw):
    assert not is_causal_methods([raw])


def test_mixed_tags_count_as_causal():
    # One whitelisted method is enough, whatever else is attached.
    assert is_causal_methods(["OLS", "IV"])
    assert is_causal_methods(["Theoretical", "rct"])


def test_relationship_label_never_decides_causality():
    edge = ClaimEdge("A1", "B2", methods=("OLS",), relationship="direct-causal")
    assert not edge.is_causal
    edge = ClaimEdge("A1", "B2", methods=("RCT",), relationship="correlation")
    assert edge.is_causal


def _spellings(tag):
    """The tag in mixed case and with extra whitespace."""
    return [tag, tag.lower(), tag.title(), tag.swapcase(),
            f"  {tag.replace(' ', '   ')}\t", f"\n{tag.lower()} "]


@pytest.mark.parametrize("alias", sorted(METHOD_ALIASES))
def test_is_causal_holds_for_every_alias_spelling(alias):
    assert METHOD_ALIASES[alias] in CAUSAL_METHODS
    for tag in _spellings(alias):
        # Each spelling alone, then beside a non-causal tag, twice over so
        # the second edge reads the cached normalisation.
        for methods in [(tag,), tuple(sorted((tag, "OLS")))] * 2:
            assert ClaimEdge("A1", "B2", methods=methods).is_causal, methods


@pytest.mark.parametrize("tag", sorted(KNOWN_NONCAUSAL_METHODS))
def test_is_causal_false_for_every_noncausal_spelling(tag):
    for spelling in _spellings(tag):
        assert not ClaimEdge("A1", "B2", methods=(spelling,)).is_causal
        assert not ClaimEdge("A1", "B2", methods=[spelling, "theory"]).is_causal


def test_is_causal_is_not_a_constructor_field():
    edge = ClaimEdge("A1", "B2", methods=("IV",))
    assert edge == ClaimEdge("A1", "B2", methods=("IV",))
    assert "is_causal" not in repr(edge)
    with pytest.raises(TypeError):
        ClaimEdge("A1", "B2", methods=("IV",), is_causal=False)


def test_claim_edge_is_immutable():
    edge = ClaimEdge("A1", "B2", methods=("IV",))
    for name in ("source", "methods", "is_causal", "anything"):
        with pytest.raises(AttributeError):
            setattr(edge, name, "X")
    assert edge == ClaimEdge("A1", "B2", methods=("IV",))


def test_claim_edge_equality_and_hash_cover_exactly_six_fields():
    fields = {"source": "A1", "sink": "B2", "source_text": "from",
              "sink_text": "to", "methods": ("IV", "OLS"),
              "relationship": "mediation"}
    base = ClaimEdge(**fields)
    same = ClaimEdge(*fields.values())
    assert same == base and hash(same) == hash(base)
    assert len({base, same}) == 1
    for name, value in [("source", "C3"), ("sink", "C3"), ("source_text", ""),
                        ("sink_text", ""), ("methods", ("IV",)),
                        ("relationship", "theorized")]:
        assert ClaimEdge(**{**fields, name: value}) != base, name
    assert ClaimEdge("A1", "B2") == ClaimEdge("A1", "B2", "", "", (), "correlation")


def test_unknown_method_tags_normalized():
    assert unknown_method_tags(["ols", "bayesian vector autoregression"]) == \
        ["BAYESIAN VECTOR AUTOREGRESSION"]
    assert unknown_method_tags(["IV", "OLS"]) == []


def test_prop_causal_counts_claims_not_pairs():
    # Two claims on the same ordered pair both count.
    edges = (
        ClaimEdge("A1", "B2", source_text="first", methods=("RCT",)),
        ClaimEdge("A1", "B2", source_text="second", methods=("OLS",)),
        ClaimEdge("B2", "C3", methods=("OLS",)),
    )
    rec = PaperRecord("p", 2000, edges=edges)
    assert rec.claim_counts()[2] == pytest.approx(1 / 3)


def test_prop_causal_missing_for_zero_edge_paper():
    assert PaperRecord("p", 2000).claim_counts()[2] is None


def test_method_tags_are_normalized_union():
    edges = (
        ClaimEdge("A1", "B2", methods=("did", "ols")),
        ClaimEdge("B2", "C3", methods=("2sls",)),
    )
    rec = PaperRecord("p", 2000, edges=edges)
    assert rec.method_tags() == {"DID", "OLS", "IV/2SLS"}


def test_normalize_title():
    assert normalize_title("  The Rise (and Fall) of X: 1970-2000!! ") == \
        "the rise and fall of x 1970 2000"
    assert normalize_title("Same   Title") == normalize_title("same title")
