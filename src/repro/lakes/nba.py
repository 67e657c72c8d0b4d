"""Synthetic Wikipedia NBA player lake (HTML; paper: 100 docs, 19 attrs).

The largest documents of the suite (Table 3 charges Direct 650M tokens
per 10k docs here) with *complex* HTML: infobox rows, compound values
(``born`` bundles date + age + birthplace), and values embedded in
anchors. Two infobox dialects model pre/post wiki-template changes.
"""
from __future__ import annotations

from repro.lakes.base import AttrSpec, DataLake, LakeSpec, Variant, build_lake

ATTRS = [
    AttrSpec("name", kind="name"),
    AttrSpec("position", kind="category",
             vocab=("Point guard", "Shooting guard", "Small forward",
                    "Power forward", "Center", "Small forward / Power forward",
                    "Power forward / Center")),
    AttrSpec("listed height", kind="category",
             vocab=("6 ft 2 in", "6 ft 6 in", "6 ft 8 in", "6 ft 9 in",
                    "6 ft 10 in", "6 ft 11 in", "7 ft 0 in", "7 ft 4 in")),
    AttrSpec("listed weight", kind="category",
             vocab=("185 lb", "200 lb", "215 lb", "230 lb", "245 lb", "260 lb")),
    AttrSpec("born", kind="compound", verbose=True),
    AttrSpec("nationality", kind="category", link_rate=0.3,
             vocab=("American", "Canadian", "French", "Spanish", "Australian")),
    AttrSpec("high school", kind="category", link_rate=0.3, coverage=0.85,
             vocab=("Oak Hill Academy", "DeMatha Catholic", "St. Vincent-St. Mary",
                    "Montverde Academy", "Lincoln High School")),
    AttrSpec("college", kind="category", link_rate=0.3, coverage=0.7,
             vocab=("Texas", "American", "Marist", "Penn State", "Kentucky",
                    "UTEP", "Michigan State", "Wake Forest", "Duke", "UCLA")),
    AttrSpec("nba draft", kind="compound", coverage=0.9, verbose=True),
    AttrSpec("playing career", kind="category",
             vocab=("1985-1999", "1996-2012", "2003-present", "1979-1991",
                    "1997-2016", "2007-present")),
    AttrSpec("league", kind="category", vocab=("NBA",)),
    AttrSpec("number", kind="num", coverage=0.9),
    AttrSpec("team", kind="category", link_rate=0.3, coverage=0.8,
             vocab=("Boston Celtics", "Los Angeles Lakers", "Chicago Bulls",
                    "Golden State Warriors", "Phoenix Suns", "Miami Heat")),
    AttrSpec("career points", kind="num", coverage=0.85),
    AttrSpec("career rebounds", kind="num", coverage=0.8),
    AttrSpec("career assists", kind="num", coverage=0.8),
    AttrSpec("career highlights", kind="list", coverage=0.7, verbose=True),
    AttrSpec("height in the shoes", kind="category", coverage=0.5,
             vocab=("6 ft 3 in", "6 ft 7 in", "6 ft 9 in", "7 ft 1 in")),
    AttrSpec("wingspan", kind="category", coverage=0.5,
             vocab=("6 ft 10 in", "7 ft 0 in", "7 ft 3 in", "7 ft 6 in")),
]

# Infobox rows the annotators left out of the 19-attribute gold schema.
DISTRACTORS = [
    AttrSpec("website", kind="category", coverage=0.8,
             vocab=("nba.com/player", "basketball-reference.com")),
    AttrSpec("birth name", kind="name", coverage=0.75),
    AttrSpec("years active", kind="category", coverage=0.7,
             vocab=("12 seasons", "15 seasons", "9 seasons", "18 seasons")),
    AttrSpec("agent", kind="name", coverage=0.6),
]

_VARIANTS = [
    Variant(
        vid="infobox-th",
        weight=0.6,
        labels={a.name: a.name.title() for a in ATTRS},
        line_fmt='<tr><th scope="row">{label}</th><td class="infobox-data">{value}</td></tr>',
    ),
    Variant(
        vid="infobox-div",
        weight=0.4,
        labels={**{a.name: a.name.title() for a in ATTRS},
                "nba draft": "NBA draft", "listed height": "Listed height",
                "listed weight": "Listed weight"},
        line_fmt='<div class="ib-label">{label}</div><div class="ib-value">{value}</div>',
    ),
]


def make_lake(n_docs: int = 100) -> DataLake:
    """Build the Wiki NBA lake with ``n_docs`` documents."""
    return build_lake(LakeSpec(
        name="nba",
        topic="NBA players",
        fmt="html",
        attrs=ATTRS,
        variants=_VARIANTS,
        n_docs=n_docs,
        doc_tokens=6200,
        difficulty=0.8,
        fn_fragility=0.18,
        header=('<!DOCTYPE html><html><head><title>{doc_id} - Wikipedia</title></head>'
                '<body><table class="infobox vcard">'),
        footer="</table><p>Career summary and season-by-season statistics follow.</p></body></html>",
        interleave_filler_tokens=120,
        distractors=DISTRACTORS,
    ))
