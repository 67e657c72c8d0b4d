"""Synthetic SWDE benchmark lakes (HTML; 8 Movie sites + 5 University sites).

SWDE's defining property is *per-site* formatting: each website renders
the same domain attributes with its own labels and HTML skeleton. Every
site is its own evaluation setting (13 of the paper's 16 settings). Each
site also carries a minority secondary page template (redesigns exist on
real sites), which is what makes a single synthesized function per
attribute lossy even within one site.

SWDE-Plus behaviour: some attributes live in the ``<title>`` element or
in tag *attributes* (e.g. ``<a href='/year/2012'>``) rather than DOM
leaf text — DOM-leaf baselines cannot reach them; Evaporate can.
"""
from __future__ import annotations

from repro.lakes.base import AttrSpec, DataLake, LakeSpec, Variant, build_lake
from repro.util import stable_digest

MOVIE_SITES = ["imdb", "rottentomatoes", "metacritic", "allmovie",
               "amctv", "hollywood", "iheartmovies", "boxofficemojo"]
UNIVERSITY_SITES = ["usnews", "collegeprowler", "matchcollege", "embark",
                    "princetonreview"]

MOVIE_ATTRS = [
    AttrSpec("title", kind="category",
             vocab=("The Last Voyage", "Midnight Harbor", "Crimson Tide Rising",
                    "A Quiet Orchard", "Steel Horizon", "The Glass Garden",
                    "Paper Lanterns", "Winter's Ledger")),
    AttrSpec("director", kind="name", link_rate=0.5),
    AttrSpec("genre", kind="category", link_rate=0.5,
             vocab=("Drama", "Comedy", "Action", "Thriller", "Romance", "Documentary")),
    AttrSpec("mpaa rating", kind="category", vocab=("G", "PG", "PG-13", "R")),
    AttrSpec("runtime", kind="category",
             vocab=("92 min", "101 min", "108 min", "115 min", "124 min", "137 min")),
    AttrSpec("release date", kind="date"),
    AttrSpec("cast", kind="list", coverage=0.95, verbose=True, multiline_rate=0.6),
    AttrSpec("rating value", kind="category", coverage=0.9,
             vocab=("6.8/10", "7.2/10", "7.9/10", "8.4/10", "5.9/10")),
    AttrSpec("writer", kind="name", coverage=0.8, link_rate=0.4),
    AttrSpec("studio", kind="category", coverage=0.7, link_rate=0.35,
             vocab=("Paramount", "Universal", "Warner Bros.", "Lionsgate", "A24")),
]

UNIVERSITY_ATTRS = [
    AttrSpec("name", kind="category",
             vocab=("Northfield State University", "Lakeview College",
                    "Harper Institute of Technology", "Cedar Valley University",
                    "Summit Ridge College", "Brookstone University")),
    AttrSpec("phone", kind="category",
             vocab=("(614) 555-0148", "(512) 555-0112", "(303) 555-0199",
                    "(617) 555-0133", "(206) 555-0177")),
    AttrSpec("website", kind="category", link_rate=0.3,
             vocab=("www.northfield.edu", "www.lakeview.edu", "www.harper.edu",
                    "www.cedarvalley.edu", "www.summitridge.edu")),
    AttrSpec("type", kind="category",
             vocab=("Public", "Private", "Private, non-profit", "Public, land-grant")),
    AttrSpec("tuition", kind="category",
             vocab=("$9,850", "$24,300", "$31,750", "$42,900", "$12,400")),
    AttrSpec("student body size", kind="num"),
    AttrSpec("acceptance rate", kind="category", coverage=0.9,
             vocab=("38%", "52%", "61%", "74%", "85%")),
    AttrSpec("setting", kind="category", coverage=0.85, link_rate=0.3,
             vocab=("Urban", "Suburban", "Rural", "Small town")),
    AttrSpec("mascot", kind="category", coverage=0.6,
             vocab=("Wolves", "Eagles", "Pioneers", "Mustangs", "Bears")),
    AttrSpec("calendar", kind="category", coverage=0.6,
             vocab=("Semester", "Quarter", "Trimester")),
]

# Fields the sites render that the SWDE annotations do not cover.
MOVIE_DISTRACTORS = [
    AttrSpec("budget", kind="category", coverage=0.8,
             vocab=("$12 million", "$45 million", "$80 million", "$150 million")),
    AttrSpec("box office", kind="category", coverage=0.8,
             vocab=("$31.4 million", "$97.2 million", "$210.5 million")),
    AttrSpec("language", kind="category", coverage=0.85,
             vocab=("English", "French", "Spanish", "Korean")),
    AttrSpec("country", kind="category", coverage=0.85,
             vocab=("United States", "United Kingdom", "Canada", "France")),
    AttrSpec("aspect ratio", kind="category", coverage=0.85,
             vocab=("1.85 : 1", "2.39 : 1", "1.37 : 1")),
    AttrSpec("sound mix", kind="category", coverage=0.8,
             vocab=("Dolby Digital", "DTS", "Dolby Atmos")),
    AttrSpec("official site", kind="category", coverage=0.9,
             vocab=("www.thelastvoyage-movie.com", "www.midnightharbor.com")),
    AttrSpec("filming locations", kind="city", coverage=0.88),
]
UNIVERSITY_DISTRACTORS = [
    AttrSpec("address", kind="city", coverage=0.85),
    AttrSpec("founded", kind="num", coverage=0.85),
    AttrSpec("president", kind="name", coverage=0.75),
    AttrSpec("school colors", kind="category", coverage=0.7,
             vocab=("Blue & Gold", "Crimson & White", "Green & Silver")),
    AttrSpec("religious affiliation", kind="category", coverage=0.85,
             vocab=("None", "Catholic", "Methodist", "Non-denominational")),
    AttrSpec("athletics", kind="category", coverage=0.85,
             vocab=("NCAA Division I", "NCAA Division II", "NCAA Division III")),
    AttrSpec("student-faculty ratio", kind="category", coverage=0.9,
             vocab=("12:1", "15:1", "18:1", "21:1")),
    AttrSpec("campus size", kind="category", coverage=0.88,
             vocab=("210 acres", "450 acres", "1,100 acres")),
]

# per-attribute surface-label options; each site deterministically picks one
_MOVIE_LABELS = {
    "title": ["Title", "Movie Title", "Film", "Name"],
    "director": ["Director", "Directed by", "Director(s)", "Filmmaker"],
    "genre": ["Genre", "Genres", "Category"],
    "mpaa rating": ["MPAA Rating", "Rated", "Rating", "Certificate"],
    "runtime": ["Runtime", "Running Time", "Length", "Duration"],
    "release date": ["Release Date", "Released", "In Theaters", "Premiere"],
    "cast": ["Cast", "Starring", "Stars", "Actors"],
    "rating value": ["User Rating", "Score", "Metascore", "Tomatometer"],
    "writer": ["Writer", "Written by", "Screenplay"],
    "studio": ["Studio", "Production Co", "Distributor"],
}
_UNIVERSITY_LABELS = {
    "name": ["Name", "School", "Institution", "University"],
    "phone": ["Phone", "Telephone", "Contact", "Phone Number"],
    "website": ["Website", "Web Site", "URL", "Homepage"],
    "type": ["Type", "School Type", "Institution Type", "Control"],
    "tuition": ["Tuition", "Annual Tuition", "Tuition & Fees", "Cost"],
    "student body size": ["Student Body Size", "Enrollment", "Total Students", "Students"],
    "acceptance rate": ["Acceptance Rate", "Admission Rate", "Accepted"],
    "setting": ["Setting", "Campus Setting", "Locale"],
    "mascot": ["Mascot", "Team Name", "Nickname"],
    "calendar": ["Calendar", "Academic Calendar", "Term System"],
}

_SKELETONS = [
    '<tr><th>{label}</th><td>{value}</td></tr>',
    '<div class="row"><span class="lbl">{label}:</span> <span class="val">{value}</span></div>',
    '<li><b>{label}</b>: {value}</li>',
    '<dt>{label}</dt><dd>{value}</dd>',
]
_ALT_SKELETONS = [
    '<p class="meta">{label} | {value}</p>',
    '<td class="k">{label}</td><td class="v">{value}</td>',
]


def _site_variants(site: str, attrs: list[AttrSpec], labels: dict[str, list[str]],
                   title_attr: str) -> list[Variant]:
    pick = lambda options, *k: options[stable_digest(site, *k) % len(options)]
    main_labels = {a.name: pick(labels[a.name], a.name, "label") for a in attrs}
    main_fmt = pick(_SKELETONS, "fmt")
    alt_fmt = pick(_ALT_SKELETONS, "altfmt")
    # SWDE-Plus: the title attribute lives in the <title> tag, and one
    # attribute is embedded in an anchor's href-adjacent text.
    overrides = {title_attr: "<title>{value} - " + site + "</title>"}
    return [
        Variant(vid=f"{site}-main", weight=0.78, labels=main_labels,
                line_fmt=main_fmt, line_fmt_overrides=overrides),
        Variant(vid=f"{site}-alt", weight=0.22, labels=main_labels,
                line_fmt=alt_fmt, line_fmt_overrides=overrides),
    ]


def make_movie_lake(site: str, n_docs: int = 100) -> DataLake:
    """Build one SWDE-Movie site lake."""
    assert site in MOVIE_SITES, site
    return build_lake(LakeSpec(
        name=f"movie-{site}",
        topic="movies",
        fmt="html",
        attrs=MOVIE_ATTRS,
        variants=_site_variants(site, MOVIE_ATTRS, _MOVIE_LABELS, "title"),
        n_docs=n_docs,
        doc_tokens=2830,
        difficulty=0.95,
        fn_fragility=0.38,
        header='<!DOCTYPE html><html><head></head><body class="' + site + '">',
        footer="</body></html>",
        interleave_filler_tokens=90,
        distractors=MOVIE_DISTRACTORS,
    ))


def make_university_lake(site: str, n_docs: int = 100) -> DataLake:
    """Build one SWDE-University site lake."""
    assert site in UNIVERSITY_SITES, site
    return build_lake(LakeSpec(
        name=f"university-{site}",
        topic="universities",
        fmt="html",
        attrs=UNIVERSITY_ATTRS,
        variants=_site_variants(site, UNIVERSITY_ATTRS, _UNIVERSITY_LABELS, "name"),
        n_docs=n_docs,
        doc_tokens=1900,
        difficulty=0.7,
        fn_fragility=0.34,
        header='<!DOCTYPE html><html><head></head><body class="' + site + '">',
        footer="</body></html>",
        interleave_filler_tokens=70,
        distractors=UNIVERSITY_DISTRACTORS,
    ))
