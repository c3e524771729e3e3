"""Expert-seeded initial KG layout (paper Section 4.1, №1 in Figure 1).

"A Medical Engineering professional ... creates an initial, small (10-20
nodes) structural layout that will initialize the base of our Knowledge
Graph.  On the highest level, the general characteristics of COVID-19 as a
virus can be extracted from older, vetted ontologies about viral
infections, e.g. symptoms, ways of transmission, etc."

The seed deliberately stores *overlapping* categorizations — symptoms by
frequency (common/rare) and by organ system — because, per Section 4.2,
"it was decided to store all different ways to categorize the data without
merging them".
"""

from __future__ import annotations

from repro.corpus import vocabulary_data as vd
from repro.kg.graph import KnowledgeGraph


def seed_covid_graph(include_known_entities: bool = True) -> KnowledgeGraph:
    """Build the expert's initial layout.

    With ``include_known_entities=False`` only the ~15-node structural
    skeleton is created (the paper's 10-20 node layout); the default also
    attaches the well-known vaccines/strains as leaves, standing in for
    the "older, vetted ontologies" bootstrap.
    """
    graph = KnowledgeGraph("COVID-19")
    root = graph.root_id

    transmission = graph.add_node("Transmission", root,
                                  category="transmission")
    for mode in ("Airborne", "Droplet", "Surface contact"):
        graph.add_node(mode, transmission, category="transmission")

    clinical = graph.add_node("Clinical presentation", root)
    symptoms = graph.add_node("Symptoms", clinical, category="symptoms")
    common = graph.add_node("Common symptoms", symptoms,
                            category="symptoms")
    rare = graph.add_node("Rare symptoms", symptoms, category="symptoms")
    by_system = graph.add_node("Symptoms by organ system", symptoms,
                               category="symptoms")

    vaccines = graph.add_node("Vaccines", root, category="vaccines")
    side_effects = graph.add_node("Side-effects", vaccines,
                                  category="side_effects")
    graph.add_node("Children side-effects", side_effects,
                   category="side_effects")

    treatment = graph.add_node("Treatment", root, category="treatments")
    graph.add_node("Strains", root, category="strains")
    graph.add_node("Prevention", root, category="prevention")
    graph.add_node("Diagnosis", root, category="diagnosis")

    if include_known_entities:
        for vaccine in vd.KNOWN_VACCINES:
            graph.add_node(vaccine, vaccines, category="vaccines")
        strains_node = graph.find_by_label("Strains")[0].node_id
        for strain in vd.STRAINS[:5]:
            graph.add_node(strain, strains_node, category="strains")
        for symptom in vd.SYMPTOMS_COMMON:
            graph.add_node(symptom, common, category="symptoms")
        for symptom in vd.SYMPTOMS_RARE:
            graph.add_node(symptom, rare, category="symptoms")
        for system, system_symptoms in vd.SYMPTOMS_BY_SYSTEM.items():
            system_node = graph.add_node(
                f"{system.capitalize()} symptoms", by_system,
                category="symptoms",
            )
            for symptom in system_symptoms:
                graph.add_node(symptom, system_node, category="symptoms")
        for effect in vd.SIDE_EFFECTS_COMMON:
            graph.add_node(effect, side_effects, category="side_effects")
        for drug in ("Remdesivir", "Dexamethasone"):
            graph.add_node(drug, treatment, category="treatments")
    return graph
