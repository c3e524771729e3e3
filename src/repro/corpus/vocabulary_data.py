"""COVID-19 domain vocabularies, entities, and sentence templates.

This is the "world knowledge" the synthetic corpus generator draws from.
Topic vocabularies drive the topical-cluster structure (№5 in the paper's
architecture figure); the entity lists drive extraction targets (№6:
vaccines, strains, side-effects); symptom categorizations mirror the
overlapping KG subtrees discussed in Section 4.2 (common/rare vs organ
systems).  ``NovoVac`` is the deliberately *unseen* vaccine used by the
fusion experiments (the paper's own NovoVac example).
"""

from __future__ import annotations

#: Topic -> characteristic terms.  Generated papers mix mostly their own
#: topic's vocabulary, so clustering has recoverable ground truth.
TOPICS: dict[str, list[str]] = {
    "vaccines": [
        "vaccine", "vaccination", "dose", "booster", "efficacy", "antibody",
        "immunogenicity", "mrna", "adjuvant", "immunity", "seroconversion",
        "titer", "injection", "trial", "placebo",
    ],
    "transmission": [
        "transmission", "masks", "aerosol", "droplet", "distancing",
        "ventilation", "exposure", "contact", "quarantine", "outbreak",
        "superspreading", "airborne", "surface", "shedding", "index",
    ],
    "treatment": [
        "treatment", "remdesivir", "dexamethasone", "antiviral", "therapy",
        "corticosteroid", "monoclonal", "plasma", "dosage", "randomized",
        "placebo", "mortality", "recovery", "hospitalization", "regimen",
    ],
    "critical_care": [
        "ventilator", "icu", "oxygen", "intubation", "airway", "ards",
        "saturation", "prone", "respiratory", "failure", "sedation",
        "tracheostomy", "extubation", "hypoxemia", "support",
    ],
    "variants": [
        "variant", "mutation", "strain", "spike", "genome", "lineage",
        "sequencing", "alpha", "delta", "omicron", "escape", "surveillance",
        "phylogenetic", "substitution", "recombination",
    ],
    "epidemiology": [
        "incidence", "prevalence", "cohort", "surveillance", "reproduction",
        "seroprevalence", "cases", "fatality", "demographics", "modeling",
        "lockdown", "wave", "testing", "positivity", "population",
    ],
    "long_covid": [
        "fatigue", "sequelae", "persistent", "recovery", "rehabilitation",
        "brain", "fog", "dyspnea", "followup", "chronic", "symptom",
        "quality", "impairment", "longitudinal", "post-acute",
    ],
    "pediatrics": [
        "children", "pediatric", "school", "misc", "inflammatory",
        "adolescent", "infant", "daycare", "immunization", "growth",
        "maternal", "neonatal", "parent", "closure", "playground",
    ],
}

#: Real-world vaccines present in the training corpus.
KNOWN_VACCINES = [
    "Pfizer", "Moderna", "AstraZeneca", "Janssen", "Novavax", "Sinovac",
    "Sputnik", "Covaxin",
]

#: Vaccines deliberately *absent* from seed ontologies: the KG fusion
#: experiments must place these by embedding similarity (Section 4.2).
UNSEEN_VACCINES = ["NovoVac", "ImmunoPro", "ViraShield"]

#: Viral strains / lineages.
STRAINS = [
    "Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Lambda", "Mu", "Omicron",
    "BA.2", "BA.5", "XBB.1.5",
]

#: Vaccine side-effects with rough frequency tiers used by table generation.
SIDE_EFFECTS_COMMON = [
    "injection site pain", "fatigue", "headache", "muscle pain", "chills",
    "fever", "nausea",
]
SIDE_EFFECTS_RARE = [
    "myocarditis", "anaphylaxis", "thrombosis", "pericarditis",
    "lymphadenopathy", "bell palsy",
]

#: Symptoms by organ system — the overlapping categorizations Section 4.2
#: insists must coexist in the KG without being merged.
SYMPTOMS_BY_SYSTEM: dict[str, list[str]] = {
    "respiratory": ["cough", "shortness of breath", "sore throat",
                    "congestion"],
    "neurological": ["headache", "loss of smell", "loss of taste",
                     "dizziness", "brain fog"],
    "cerebrovascular": ["stroke", "dizziness", "headache"],
    "gastrointestinal": ["nausea", "diarrhea", "vomiting",
                         "abdominal pain"],
    "systemic": ["fever", "fatigue", "muscle pain", "chills"],
}

SYMPTOMS_COMMON = ["fever", "cough", "fatigue", "headache",
                   "loss of smell", "sore throat"]
SYMPTOMS_RARE = ["stroke", "brain fog", "rash", "abdominal pain"]

#: Journals for synthetic publication metadata.
JOURNALS = [
    "Lancet Infectious Diseases", "Nature Medicine", "JAMA",
    "New England Journal of Medicine", "BMJ", "Cell", "Vaccine",
    "Clinical Infectious Diseases", "Eurosurveillance", "PLOS ONE",
]

FIRST_NAMES = [
    "Wei", "Maria", "John", "Aisha", "Carlos", "Yuki", "Elena", "Raj",
    "Fatima", "Lars", "Ana", "Dmitri", "Grace", "Omar", "Ingrid",
]
LAST_NAMES = [
    "Chen", "Garcia", "Smith", "Khan", "Silva", "Tanaka", "Popov",
    "Patel", "Hassan", "Nielsen", "Costa", "Ivanov", "Okafor", "Kim",
    "Muller",
]

#: Title templates; ``{t0}``/``{t1}`` are topic terms.
TITLE_TEMPLATES = [
    "Effect of {t0} on {t1} in hospitalized COVID-19 patients",
    "A retrospective study of {t0} and {t1} during the pandemic",
    "{t0} and {t1}: evidence from a multicenter cohort",
    "Assessing {t0} outcomes under {t1} protocols",
    "The role of {t0} in COVID-19 {t1}",
    "Longitudinal analysis of {t0} among patients with {t1}",
]

#: Abstract/body sentence templates.
SENTENCE_TEMPLATES = [
    "We analyzed {t0} and {t1} in a cohort of {n} patients.",
    "The association between {t0} and {t1} was significant.",
    "Patients receiving {t0} showed improved {t1} after {n} days.",
    "Our findings suggest that {t0} modulates {t1} substantially.",
    "{t0} was measured alongside {t1} at baseline and followup.",
    "Rates of {t0} declined as {t1} increased across sites.",
    "Adjusting for age, {t0} remained associated with {t1}.",
    "This study evaluates {t0} as a predictor of {t1}.",
    "Secondary outcomes included {t0} and {t1} at {n} weeks.",
    "No serious events related to {t0} or {t1} were observed.",
]

SECTION_NAMES = ["Introduction", "Methods", "Results", "Discussion",
                 "Conclusion"]
