"""Synthetic Enron-style email lake (TXT; paper: 500k docs, 15 attributes).

Emails are short and their headers are *extremely* regular — a single
RFC-822-style variant plus a minor forwarded-mail variant. This is the
paper's "easy" lake: Evaporate-Direct scores highest here (90.9 Pair F1)
and Code+ gains nothing from ensembling (header regexes just work).
"""
from __future__ import annotations

from repro.lakes.base import AttrSpec, DataLake, LakeSpec, Variant, build_lake

ATTRS = [
    AttrSpec("message-id", kind="code"),
    AttrSpec("date", kind="date"),
    AttrSpec("from", kind="name"),
    AttrSpec("to", kind="list", multiline_rate=0.65),
    AttrSpec("subject", kind="category",
             vocab=("Re: gas scheduling", "Forward curve update", "Meeting notes",
                    "Re: trading limits", "Weekend coverage", "Contract review")),
    AttrSpec("cc", kind="list", coverage=0.55, multiline_rate=0.65),
    AttrSpec("bcc", kind="list", coverage=0.25, multiline_rate=0.65),
    AttrSpec("mime-version", kind="category", vocab=("1.0",)),
    AttrSpec("content-type", kind="category",
             vocab=("text/plain; charset=us-ascii", "text/plain; charset=ANSI_X3.4-1968")),
    AttrSpec("content-transfer-encoding", kind="category", vocab=("7bit", "quoted-printable")),
    AttrSpec("x-from", kind="name"),
    AttrSpec("x-to", kind="list", multiline_rate=0.65),
    AttrSpec("x-folder", kind="category",
             vocab=("\\inbox", "\\sent items", "\\deleted items", "\\discussion threads")),
    AttrSpec("x-origin", kind="category", vocab=("Allen-P", "Kaminski-V", "Dasovich-J")),
    AttrSpec("x-filename", kind="category",
             vocab=("pallen.nsf", "vkamins.nsf", "jdasovic.nsf")),
]

_HEADERS = {a.name: a.name.title() if not a.name.startswith("x-") else
            "X-" + a.name[2:].title() for a in ATTRS}
_HEADERS["message-id"] = "Message-ID"
_HEADERS["mime-version"] = "Mime-Version"
_HEADERS["content-type"] = "Content-Type"
_HEADERS["content-transfer-encoding"] = "Content-Transfer-Encoding"
_HEADERS["cc"] = "Cc"
_HEADERS["bcc"] = "Bcc"

_VARIANTS = [
    Variant(vid="rfc822", weight=0.9, labels=dict(_HEADERS), line_fmt="{label}: {value}"),
    Variant(vid="forwarded", weight=0.1,
            labels={k: v.upper() if k in ("from", "to", "subject") else v
                    for k, v in _HEADERS.items()},
            line_fmt="{label}: {value}"),
]


def make_lake(n_docs: int = 100) -> DataLake:
    """Build the Enron email lake with ``n_docs`` documents."""
    return build_lake(LakeSpec(
        name="enron",
        topic="corporate emails",
        fmt="txt",
        attrs=ATTRS,
        variants=_VARIANTS,
        n_docs=n_docs,
        doc_tokens=210,
        difficulty=0.02,
        fn_fragility=0.10,
        footer="\nPlease see the attached schedule and confirm by end of day.\n",
        interleave_filler_tokens=0,
    ))
