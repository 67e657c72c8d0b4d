"""Core dataclasses and rendering for synthetic heterogeneous data lakes.

A *lake* is a set of semi-structured documents (TXT or HTML) plus the
manually-curated ground truth the paper evaluates against. ``build_lake``
computes on the driver only what is small:

- ``doc_ids``: the documents, in lake order
- ``gold``:  long frame ``(doc_id, attribute, value)`` — one row per
  attribute *present* in the document (coverage < 1 drops rows)
- ``facts``: ``gold`` plus the distractor fields' rows
- ``gold_attrs``: canonical attribute names, ordered by importance
  (coverage-ranked, mirroring the paper's "head attributes first")

A document's text is a pure function of the lake's ``LakeSpec`` and its
index, ``render_doc(spec, i)``. Spark executors render the lake's docs
frame from the spec (``execute.docs_frame``); the driver renders only the
docs it reads (``DataLake.doc_text``), or the whole lake on demand
(``DataLake.docs``) for the baselines and tests.

Heterogeneity is modelled with *variants*: each document is rendered by
one of the lake's formatting variants, which differ in the surface label
used for each attribute (casing/punctuation/synonyms) and in the line
template embedding the value. Synthesized extraction functions derived
from one variant genuinely fail to match other variants — this is the
mechanism behind the paper's "high precision / low recall functions".
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

import pandas as pd

from repro.util import hash_rng, hash_uniform, normalize_attr

# ---------------------------------------------------------------------------
# filler prose

_WORDS = (
    "the device report section provides additional context regarding the "
    "submission and its intended use within the broader regulatory review "
    "process including performance testing bench data clinical summaries "
    "software verification labeling comparisons and general discussion of "
    "substantial equivalence as determined by the review team during the "
    "evaluation period for this record"
).split()


def filler(n_tokens: int, *seed_parts: object) -> str:
    """Deterministic pseudo-prose of roughly ``n_tokens`` tokens.

    Used to pad documents to realistic sizes so the token-cost columns
    (Table 3) have the right per-lake ratios.
    """
    if n_tokens <= 0:
        return ""
    g = hash_rng("filler", *seed_parts)
    words = [_WORDS[i] for i in g.integers(0, len(_WORDS), int(n_tokens))]
    out, line = [], []
    for w in words:
        line.append(w)
        if len(line) >= 14:
            out.append(" ".join(line) + ".")
            line = []
    if line:
        out.append(" ".join(line) + ".")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class AttrSpec:
    """One gold attribute of a lake.

    ``kind`` drives value generation; ``coverage`` is the fraction of
    documents carrying the attribute (the paper prioritizes high-coverage
    attributes); ``verbose`` marks long/compound values that direct LLM
    extraction tends to truncate (hurting exact-match Pair F1).
    """

    name: str
    kind: str = "category"  # category | name | date | code | num | longtext | list | compound
    coverage: float = 1.0
    verbose: bool = False
    vocab: tuple[str, ...] = ()
    # Fraction of docs where the value is rendered across continuation
    # lines (e.g. long email recipient lists) — gold keeps the logical
    # value, line-based extractors capture only the first line.
    multiline_rate: float = 0.0
    # Fraction of docs (HTML lakes) where the value is wrapped in an
    # anchor tag — gold keeps the plain text, greedy captures keep markup.
    link_rate: float = 0.0


@dataclass(frozen=True)
class Variant:
    """A formatting variant of the lake (or an SWDE 'site' style)."""

    vid: str
    weight: float
    labels: dict[str, str]  # canonical attr -> surface label
    line_fmt: str  # template with {label} and {value}
    line_fmt_overrides: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class LakeSpec:
    """Everything a lake is built from. Picklable, so Spark executors
    render the docs from it (``execute.docs_frame``) and the text never
    passes through the driver. Doc ``i`` of the lake is ``doc_id(i)``."""

    name: str
    topic: str
    fmt: str  # "txt" | "html"
    attrs: list[AttrSpec]
    variants: list[Variant]
    n_docs: int
    doc_tokens: int
    difficulty: float  # [0,1] scales direct-LLM noise (per-lake hardness)
    fn_fragility: float  # [0,1] extra probability a synthesized fn is brittle
    header: str = ""
    footer: str = ""
    interleave_filler_tokens: int = 0
    distractors: list[AttrSpec] = field(default_factory=list)

    def doc_id(self, i: int) -> str:
        return f"{self.name}-{i:04d}"


class _Texts(dict):
    """``doc_id -> text``, rendering each doc on its first read."""

    def __init__(self, spec: LakeSpec, doc_ids: list[str]) -> None:
        super().__init__()
        self._spec, self._index = spec, {d: i for i, d in enumerate(doc_ids)}

    def __missing__(self, doc_id: str) -> str:
        text = self[doc_id] = render_doc(self._spec, self._index[doc_id])
        return text


@dataclass(eq=False)
class DataLake:
    """A synthetic lake's ground truth, and its text on demand.

    Lakes compare and hash by identity: per-lake caches, such as
    ``execute.docs_frame``'s Spark frame, are keyed on the lake object.

    ``gold`` holds only the curated evaluation attributes (the paper's
    annotator-agreed "important" attributes); ``facts`` additionally
    holds *distractor* fields that genuinely appear in the documents but
    are not part of the gold schema. Extraction systems that surface
    them pay precision against gold — exactly the regime the paper
    evaluates in (§A: the gold-attribute count is "generally not the
    number of attributes that maximizes the Pair F1 score").
    """

    spec: LakeSpec
    doc_ids: list[str]  # lake order
    gold: pd.DataFrame
    gold_attrs: list[str]
    aliases: dict[str, str]  # normalized surface form -> canonical attr
    facts: pd.DataFrame  # gold + distractor rows

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @cached_property
    def doc_text(self) -> dict[str, str]:
        """``doc_id -> text`` on the driver, each doc rendered on its first
        read: the pipelines read only the few docs they sample."""
        return _Texts(self.spec, self.doc_ids)

    @cached_property
    def docs(self) -> pd.DataFrame:
        """``(doc_id, variant, text)`` of every doc, rendered on the driver
        on first use, for the baselines and tests that read the whole lake.
        The pipelines read ``execute.docs_frame`` instead."""
        spec = self.spec
        return pd.DataFrame(
            [(d, _pick_variant(spec.variants, spec.name, d).vid, render_doc(spec, i))
             for i, d in enumerate(self.doc_ids)],
            columns=["doc_id", "variant", "text"])


def rows_for_docs(frame: pd.DataFrame, doc_ids: Iterable[str] | None) -> pd.DataFrame:
    """``frame``'s rows whose ``doc_id`` is in ``doc_ids`` (all rows for None)."""
    if doc_ids is None:
        return frame
    return frame[frame.doc_id.isin(set(doc_ids))]


# ---------------------------------------------------------------------------
# value generation

_FIRST = ["James", "Mary", "Robert", "Linda", "Michael", "Susan", "David",
          "Karen", "Richard", "Nancy", "Thomas", "Lisa", "Daniel", "Betty"]
_LAST = ["Smith", "Johnson", "Brown", "Davis", "Miller", "Wilson", "Moore",
         "Taylor", "Anderson", "Thomas", "Jackson", "White", "Harris", "Clark"]
_CITIES = ["Columbus, Ohio", "Austin, Texas", "Akron, Ohio", "Denver, Colorado",
           "Boston, Massachusetts", "Chicago, Illinois", "Seattle, Washington",
           "Atlanta, Georgia", "Portland, Oregon", "Phoenix, Arizona"]


def gen_value(attr: AttrSpec, lake: str, doc_id: str) -> str:
    """Deterministic ground-truth value for ``attr`` in ``doc_id``."""
    g = hash_rng("value", lake, doc_id, attr.name)
    if attr.vocab:
        return str(attr.vocab[g.integers(0, len(attr.vocab))])
    k = attr.kind
    if k == "date":
        y, m, d = 1950 + g.integers(0, 73), 1 + g.integers(0, 12), 1 + g.integers(0, 28)
        return f"{_MONTHS[m - 1]} {d}, {y}"
    if k == "name":
        return f"{_FIRST[g.integers(0, len(_FIRST))]} {_LAST[g.integers(0, len(_LAST))]}"
    if k == "code":
        return f"K{g.integers(100000, 999999)}"
    if k == "num":
        return str(int(g.integers(1, 5000)))
    if k == "city":
        return _CITIES[g.integers(0, len(_CITIES))]
    if k == "list":
        n = 2 + int(g.integers(0, 3))
        items = sorted({_LAST[g.integers(0, len(_LAST))] for _ in range(n)})
        return ", ".join(items)
    if k == "longtext":
        return ("indicated for the quantitative measurement of analyte levels in "
                f"serum specimen type {int(g.integers(1, 99))} under standard conditions")
    if k == "compound":
        y = 1950 + int(g.integers(0, 60))
        city = _CITIES[g.integers(0, len(_CITIES))]
        return f"{_MONTHS[g.integers(0, 12)]} {1 + int(g.integers(0, 28))}, {y} (age {2026 - y}) {city}"
    # category fallback
    return f"type-{int(g.integers(1, 12))}"


_MONTHS = ["January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"]


# ---------------------------------------------------------------------------
# rendering

def _pick_variant(variants: list[Variant], lake: str, doc_id: str) -> Variant:
    u = hash_uniform("variant", lake, doc_id)
    acc = 0.0
    total = sum(v.weight for v in variants)
    for v in variants:
        acc += v.weight / total
        if u < acc:
            return v
    return variants[-1]


def _facts(spec: LakeSpec, doc_id: str) -> list[tuple[AttrSpec, str]]:
    """The attributes ``doc_id`` carries and their values, gold attributes
    then distractors, in spec order."""
    return [(a, gen_value(a, spec.name, doc_id)) for a in [*spec.attrs, *spec.distractors]
            if hash_uniform("coverage", spec.name, doc_id, a.name) < a.coverage]


def render_doc(spec: LakeSpec, i: int) -> str:
    """Doc ``i``'s text, rendered from its variant and its facts.

    Attribute lines are interleaved with filler prose; total doc size is
    padded to ~``doc_tokens`` tokens. Every draw is keyed on the doc id,
    so any process renders the same text.
    """
    name, doc_id = spec.name, spec.doc_id(i)
    v = _pick_variant(spec.variants, name, doc_id)
    parts: list[str] = []
    if spec.header:
        parts.append(spec.header.format(doc_id=doc_id))
    for j, (a, val) in enumerate(_facts(spec, doc_id)):
        label = v.labels.get(a.name, a.name)
        fmt_line = v.line_fmt_overrides.get(a.name, v.line_fmt)
        doc_val = val
        if a.multiline_rate and hash_uniform(
                "multiline", name, doc_id, a.name) < a.multiline_rate:
            doc_val = val.replace(", ", ",\n\t")
        if a.link_rate and spec.fmt == "html" and hash_uniform(
                "link", name, doc_id, a.name) < a.link_rate:
            slug = val.replace(" ", "_")
            doc_val = f'<a href="/wiki/{slug}">{val}</a>'
        parts.append(fmt_line.format(label=label, value=doc_val))
        if spec.interleave_filler_tokens:
            parts.append(filler(spec.interleave_filler_tokens, name, doc_id, j))
    if spec.footer:
        parts.append(spec.footer.format(doc_id=doc_id))
    body = "\n".join(parts)
    # pad to target size (tokens ~ chars/4)
    deficit = spec.doc_tokens - len(body) // 4
    if deficit > 40:
        body = body + "\n" + filler(deficit, name, doc_id, "pad")
    return body


def build_lake(spec: LakeSpec) -> DataLake:
    """The lake of ``spec`` without its text: doc ids, facts and gold.

    The gold table records exactly the values ``render_doc`` embeds in
    the text (the reproduction's "manually curated" ground truth — by
    construction it is perfectly faithful).
    """
    distractor_names = {a.name for a in spec.distractors}
    doc_ids = [spec.doc_id(i) for i in range(spec.n_docs)]
    fact_rows = [(d, a.name, val) for d in doc_ids for a, val in _facts(spec, d)]
    gold_rows = [r for r in fact_rows if r[1] not in distractor_names]

    aliases: dict[str, str] = {}
    for v in spec.variants:
        for attr, label in v.labels.items():
            aliases[normalize_attr(label)] = attr
    for a in [*spec.attrs, *spec.distractors]:
        aliases.setdefault(normalize_attr(a.name), a.name)

    # importance order: coverage-descending, spec order as tiebreak
    attrs = spec.attrs
    order = sorted(range(len(attrs)), key=lambda i: (-attrs[i].coverage, i))

    columns = ["doc_id", "attribute", "value"]
    return DataLake(
        spec=spec,
        doc_ids=doc_ids,
        gold=pd.DataFrame(gold_rows, columns=columns),
        gold_attrs=[attrs[i].name for i in order],
        aliases=aliases,
        facts=pd.DataFrame(fact_rows, columns=columns),
    )
