#!/usr/bin/env python3
"""Generate the synthetic mini-corpus.

Writes 30 article XML files plus citations.csv into --out, by default
src/lexcite/data/minicorpus/, where they regenerate the bundled corpus byte
for byte. All text is synthetic (template-filled), so the corpus is freely
redistributable. Three documents are built without any adverb so the
adverb variables exercise their Absent path, and a few documents get zero
citations so the log-response models exercise their drop path.

The output is deterministic: a fixed seed drives every choice, and files
are written in sorted order. Files of the same names in --out are
overwritten; no other file there is touched. Examples:

    python3 tools/gen_minicorpus.py
    python3 tools/gen_minicorpus.py --out /tmp/minicorpus
"""

from __future__ import annotations

import argparse
import csv
import io
import random
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parents[1] / "src" / "lexcite" / "data" / "minicorpus"

SEED = 20090501
YEARS = (2009, 2010, 2011, 2012, 2013)
DOCS_PER_CELL = 2

DOMAINS = {
    "Ecology": ("ECO", "Journal of Synthetic Ecology"),
    "Psychology": ("PSY", "Annals of Synthetic Psychology"),
    "Genetics": ("GEN", "Synthetic Genetics Letters"),
}

# Documents listed here are generated with no adverbs at all.
ADVERB_FREE = {"ECO.2011.0002", "PSY.2012.0001", "GEN.2013.0002"}

# Zero-citation documents; never both members of a cell, so every
# (year, domain) baseline stays positive.
ZERO_CITED = {"ECO.2009.0002", "PSY.2010.0002", "GEN.2011.0001", "ECO.2013.0001"}

OPENERS_ADVERB = (
    "However ,",
    "Moreover ,",
    "Overall ,",
    "Therefore ,",
)
OPENERS_PLAIN = (
    "In addition ,",
    "In contrast ,",
    "At the same time ,",
)

SUBJECTS = {
    "Ecology": (
        "the invasive plant population",
        "the native bird community",
        "the seasonal seed yield",
        "the predator density in the wet plots",
        "the forest canopy structure",
        "the soil nitrogen concentration",
        "the annual growth rate of the dominant trees",
        "the species richness of the river sites",
    ),
    "Psychology": (
        "the mean recall score",
        "the response duration in the second session",
        "the memory performance of the older participants",
        "the cognitive load during the visual task",
        "the attention index",
        "the error rate under time pressure",
        "the learning rate across the ten trials",
        "the group difference in task accuracy",
    ),
    "Genetics": (
        "the expression level of the target gene",
        "the mutation frequency in the coding region",
        "the protein concentration",
        "the methylation pattern of the promoter",
        "the allele ratio in the sampled population",
        "the transcription rate under heat stress",
        "the sequence similarity between the two strains",
        "the copy number of the repeated element",
    ),
}

PRESENT_VERBS = (
    "shows a consistent pattern",
    "suggests a strong seasonal effect",
    "indicates a clear threshold",
    "remains stable",
    "exceeds the regional baseline",
    "supports the second hypothesis",
    "depends on the sampling design",
    "varies with the local conditions",
)

PAST_VERBS = (
    "increased",
    "declined",
    "rose",
    "fell",
    "differed between the two groups",
    "varied between years",
    "remained near the long-term mean",
    "showed a moderate upward trend",
)

CONTEXTS = (
    "across the five study sites",
    "during the early spring period",
    "between the first and the last season",
    "under the warm treatment condition",
    "within the central study region",
    "over the whole observation period",
    "in the high density plots",
    "after the second measurement phase",
)

TAILS = (
    "because the baseline conditions were stable",
    "although the sample size was moderate",
    "which suggests a robust underlying process",
    "and the difference was significant (p&lt;0.05)",
    "despite the broad range of initial values",
    "while the control group remained unchanged",
    "and the effect size was substantial",
    "because the measurement error was small",
)

WE_VERBS = (
    "observed",
    "measured",
    "recorded",
    "compared",
    "estimated",
    "analyzed",
)

WE_OBJECTS = (
    "a clear increase in the mean value",
    "a substantial difference between the groups",
    "a moderate decline in the third period",
    "a consistent pattern across the samples",
    "a strong correlation between the two variables",
    "a small but stable shift in the distribution",
)

CITE_SOURCES = (
    "Smith et al. (2008)",
    "Lee et al. (2007)",
    "Garcia et al. (2011)",
)

CITE_CLAIMS = (
    "reported a similar trend for a larger sample",
    "described the same pattern in an earlier cohort",
    "proposed the framework that motivated this design",
)

FIG_CLAIMS = (
    "summarizes the distribution of the raw values",
    "shows the estimated trend for each group",
    "compares the three conditions over time",
)

METHOD_SENTENCES = (
    "The measurements were collected at fixed intervals of 4.5 hours over "
    "three consecutive weeks , and every record was checked a second time before the analysis .",
    "Each sample was processed with the standard protocol , e.g. the buffer "
    "concentration was held at 2.5 units through the whole procedure .",
    "The final dataset contained the complete records from all sites , and "
    "the few incomplete cases were excluded before the model fitting step .",
    "All values were scaled to a common range before the comparison , cf. the "
    "procedure described in the appendix of the cited report .",
    "The design balanced the number of cases per condition , i.e. every cell "
    "of the design received the same number of independent samples .",
)


def sentence_bank(rng: random.Random, domain: str, adverb_free: bool) -> list[str]:
    """Candidate sentences for one document."""
    subjects = SUBJECTS[domain]
    bank: list[str] = []
    for subject in subjects:
        bank.append(f"{subject.capitalize()} {rng.choice(PAST_VERBS)} "
                    f"{rng.choice(CONTEXTS)} {rng.choice(TAILS)} .")
        bank.append(f"{subject.capitalize()} {rng.choice(PRESENT_VERBS)} "
                    f"{rng.choice(CONTEXTS)} {rng.choice(TAILS)} .")
    for _ in range(4):
        bank.append(f"We {rng.choice(WE_VERBS)} {rng.choice(WE_OBJECTS)} "
                    f"{rng.choice(CONTEXTS)} {rng.choice(TAILS)} .")
    bank.append(f"{rng.choice(CITE_SOURCES)} {rng.choice(CITE_CLAIMS)} , and the "
                f"present results extend that finding to a new setting .")
    bank.append(f"Fig. {rng.randint(1, 4)} {rng.choice(FIG_CLAIMS)} , and the "
                f"pattern holds {rng.choice(CONTEXTS)} .")
    rng.shuffle(bank)
    if not adverb_free:
        # guarantee adverbs: open two fixed sentences with an adverbial
        for pos in (0, 2):
            opener = rng.choice(OPENERS_ADVERB)
            sent = bank[pos]
            bank[pos] = f"{opener} {sent[0].lower()}{sent[1:]}"
    return bank


def render_sentence(text: str) -> str:
    """Collapse the token-spaced template into prose spacing."""
    return (text.replace(" ,", ",").replace(" .", ".").replace(" (", " (")
                .replace("( ", "(").replace(" )", ")"))


def build_paragraphs(rng: random.Random, domain: str, adverb_free: bool) -> list[list[str]]:
    bank = sentence_bank(rng, domain, adverb_free)
    take = iter(bank)
    paragraphs = []
    for _ in range(rng.randint(3, 4)):
        paragraphs.append([render_sentence(next(take))
                           for _ in range(rng.randint(3, 5))])
    methods = [render_sentence(s) for s in rng.sample(METHOD_SENTENCES, 2)]
    paragraphs.insert(1, methods)
    return paragraphs


def emphasize(rng: random.Random, sentence: str) -> str:
    """Wrap one word in inline markup to exercise nested-element text."""
    words = sentence.split(" ")
    idx = rng.randrange(1, max(2, len(words) - 1))
    word = words[idx]
    if word.isalpha():
        words[idx] = f"<italic>{word}</italic>"
    return " ".join(words)


def article_xml(rng: random.Random, doc_id: str, year: int, domain: str,
                journal: str, paragraphs: list[list[str]]) -> str:
    sections = []
    titles = ("Introduction", "Methods", "Results", "Discussion")
    for i, sentences in enumerate(paragraphs):
        body_text = " ".join(sentences)
        if i == 2:
            body_text = emphasize(rng, body_text)
        title = titles[min(i, len(titles) - 1)]
        sections.append(f"    <sec>\n      <title>{title}</title>\n"
                        f"      <p>{body_text}</p>\n    </sec>")
    body = "\n".join(sections)
    return f"""<article>
  <front>
    <journal-meta>
      <journal-title>{journal}</journal-title>
    </journal-meta>
    <article-meta>
      <article-id pub-id-type="doi">{doc_id}</article-id>
      <article-categories>
        <subj-group subj-group-type="heading">
          <subject>{domain}</subject>
        </subj-group>
      </article-categories>
      <pub-date>
        <year>{year}</year>
      </pub-date>
    </article-meta>
  </front>
  <body>
{body}
  </body>
</article>
"""


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT_DIR,
                        help="output directory (default: the bundled package data)")
    args = parser.parse_args(argv)
    out_dir: Path = args.out
    rng = random.Random(SEED)
    out_dir.mkdir(parents=True, exist_ok=True)
    citation_rows = []
    for domain in sorted(DOMAINS):
        prefix, journal = DOMAINS[domain]
        for year in YEARS:
            for serial in range(1, DOCS_PER_CELL + 1):
                doc_id = f"{prefix}.{year}.{serial:04d}"
                adverb_free = doc_id in ADVERB_FREE
                paragraphs = build_paragraphs(rng, domain, adverb_free)
                xml = article_xml(rng, doc_id, year, domain, journal, paragraphs)
                (out_dir / f"{doc_id}.xml").write_text(xml, encoding="utf-8")
                if doc_id in ZERO_CITED:
                    cites = 0
                else:
                    cites = max(1, int(rng.lognormvariate(1.6, 1.0)))
                citation_rows.append([doc_id, year, domain, cites])
    citation_rows.sort(key=lambda r: r[0])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["doc_id", "year", "domain", "total_citations"])
    writer.writerows(citation_rows)
    (out_dir / "citations.csv").write_bytes(buf.getvalue().encode("utf-8"))
    print(f"wrote {len(citation_rows)} articles + citations.csv to {out_dir}")


if __name__ == "__main__":
    main()
