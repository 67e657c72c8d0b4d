"""Synthetic FDA 510(k) review lake (TXT; paper: 100 PDFs, 16 attributes).

Long semi-structured text reports: labelled fields separated by prose
sections. Three formatting variants model the drift across review years
(label casing/punctuation changes, e.g. ``510(k) Number:`` vs
``510(K) NUMBER --``), which the paper highlights via the "product code
starts with lowercase k in a minority of reports" example.
"""
from __future__ import annotations

from repro.lakes.base import AttrSpec, DataLake, LakeSpec, Variant, build_lake

ATTRS = [
    AttrSpec("510(k) number", kind="code"),
    AttrSpec("device name", kind="category",
             vocab=("Immunoassay Analyzer", "Glucose Monitor", "Imaging System",
                    "Infusion Pump", "Surgical Stapler", "Patient Monitor")),
    AttrSpec("applicant", kind="category",
             vocab=("Qualigen, Inc.", "Immunalysis Corporation", "Tosoh Bioscience",
                    "Siemens Healthcare", "Diazyme Laboratories Inc.",
                    "Leica Biosystems Imaging, Inc.")),
    AttrSpec("purpose for submission", kind="category",
             vocab=("New assay", "New Device", "New WSI System", "Modified device")),
    AttrSpec("measurand", kind="category",
             vocab=("C-reactive protein (CRP)", "Opiates", "Sex Hormone Binding Globulin",
                    "Tacrolimus", "Barbiturates", "1,5-Anhydroglucitol", "Not applicable")),
    AttrSpec("type of test", kind="category",
             vocab=("Quantitative", "homogeneous enzyme immunoassay",
                    "Quantitative immunoassay", "Colorometric, pyranose oxidase",
                    "Digital pathology WS imaging")),
    AttrSpec("classification", kind="category",
             vocab=("Class I", "Class II", "Class III")),
    AttrSpec("predicate device name", kind="category", coverage=0.92,
             vocab=("ARCHITECT i2000", "Vitros 5600", "Cobas 6000", "Access 2",
                    "Centaur XP", "Dimension EXL")),
    AttrSpec("product code", kind="code", coverage=0.95),
    AttrSpec("regulation number", kind="category", coverage=0.9,
             vocab=("862.1160", "862.3650", "866.5765", "862.1675", "864.3700")),
    AttrSpec("indications for use", kind="longtext", verbose=True),
    AttrSpec("decision date", kind="date", coverage=0.9),
    AttrSpec("panel", kind="category", coverage=0.85,
             vocab=("Clinical Chemistry", "Toxicology", "Immunology", "Pathology")),
    AttrSpec("specimen type", kind="category", coverage=0.8,
             vocab=("Serum", "Plasma", "Whole blood", "Urine", "Tissue")),
    AttrSpec("antibody", kind="category", coverage=0.6,
             vocab=("monoclonal", "polyclonal", "Not applicable")),
    AttrSpec("conclusion", kind="longtext", coverage=0.75, verbose=True),
]

# Real fields in 510(k) reviews that the 5 annotators did NOT include in
# the 16-attribute gold schema (Appendix B.1 keeps only attributes all
# graduate students agreed were important).
DISTRACTORS = [
    AttrSpec("date prepared", kind="date", coverage=0.9),
    AttrSpec("contact person", kind="name", coverage=0.85),
    AttrSpec("phone number", kind="category", coverage=0.85,
             vocab=("(301) 555-0162", "(240) 555-0117", "(410) 555-0189")),
    AttrSpec("review branch", kind="category", coverage=0.8,
             vocab=("Division of Chemistry", "Division of Immunology",
                    "Division of Imaging")),
    AttrSpec("proprietary name", kind="category", coverage=0.8,
             vocab=("FastPack IP", "SEFRIA", "ST AIA-PACK", "Dimension EXL TAC")),
    AttrSpec("establishment registration number", kind="num", coverage=0.7),
    AttrSpec("decision", kind="category", coverage=0.92,
             vocab=("Substantially Equivalent", "SESE", "SESU")),
    AttrSpec("date received", kind="date", coverage=0.9),
    AttrSpec("review advisory committee", kind="category", coverage=0.88,
             vocab=("Chemistry", "Hematology", "Microbiology")),
]

_CANON = {a.name: a.name.title() for a in ATTRS}

_VARIANTS = [
    Variant(
        vid="modern",
        weight=0.55,
        labels={a.name: a.name.title() for a in ATTRS},
        line_fmt="{label}: {value}",
    ),
    Variant(
        vid="legacy",
        weight=0.3,
        labels={a.name: a.name.upper() for a in ATTRS},
        line_fmt="{label} -- {value}",
    ),
    Variant(
        vid="memo",
        weight=0.15,
        labels={**{a.name: a.name.title() for a in ATTRS},
                "510(k) number": "510(k) No.",
                "product code": "product code"},  # lowercase-k era styling
        line_fmt="  {label} = {value}",
    ),
]


def make_lake(n_docs: int = 100) -> DataLake:
    """Build the FDA 510(k) lake with ``n_docs`` documents."""
    return build_lake(LakeSpec(
        name="fda",
        topic="medical device 510(k) reviews",
        fmt="txt",
        attrs=ATTRS,
        variants=_VARIANTS,
        n_docs=n_docs,
        doc_tokens=1450,
        difficulty=0.74,
        fn_fragility=0.42,
        header="510(k) SUBSTANTIAL EQUIVALENCE DETERMINATION\nDECISION SUMMARY {doc_id}\n",
        footer="\nThe review team finds the device substantially equivalent. {doc_id}",
        interleave_filler_tokens=55,
        distractors=DISTRACTORS,
    ))
