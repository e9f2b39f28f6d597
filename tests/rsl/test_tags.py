"""Table 1 conformance: the tag registry carries the paper's tag set."""

from repro.rsl.tags import TAG_REGISTRY, TagContext

#: The nine primary tags of the paper's Table 1, verbatim.
TABLE1_TAGS = [
    "harmonyBundle", "node", "link", "communication", "performance",
    "granularity", "variable", "harmonyNode", "speed",
]


def test_all_table1_tags_registered():
    for tag in TABLE1_TAGS:
        assert tag in TAG_REGISTRY, f"Table 1 tag {tag!r} missing"


def test_table1_order_preserved():
    names = list(TAG_REGISTRY)
    assert names[:len(TABLE1_TAGS)] == TABLE1_TAGS


def test_every_tag_has_purpose_text():
    for info in TAG_REGISTRY.values():
        assert info.purpose.strip()


def names_in(context):
    return {tag.name for tag in TAG_REGISTRY.values()
            if context in tag.contexts}


def test_script_level_tags():
    assert names_in(TagContext.SCRIPT) == {"harmonyBundle", "harmonyNode"}


def test_option_level_tags_include_paper_set():
    option_tags = names_in(TagContext.OPTION)
    assert {"node", "link", "communication", "performance", "granularity",
            "variable"} <= option_tags


def test_speed_is_advertisement_tag():
    info = TAG_REGISTRY["speed"]
    assert TagContext.ADVERT in info.contexts
    assert "400 MHz Pentium II" in info.purpose
