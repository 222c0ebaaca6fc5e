"""Workloads: the paper's example databases and synthetic generators."""

from repro.workloads.generators import (
    TreeSpec,
    count_objects,
    layered_dag,
    layered_tree,
    random_labelled_tree,
)
from repro.workloads.scenarios import (
    PERSON_OIDS,
    insert_tuple,
    person_db,
    register_person_database,
    relations_db,
    web_db,
)
from repro.workloads.traffic import (
    TrafficEnv,
    TrafficEvent,
    TrafficSpec,
    build_traffic_env,
    poisson_schedule,
)
from repro.workloads.updates import UpdateMix, UpdateStream, burst_of_tuples

__all__ = [
    "PERSON_OIDS",
    "TrafficEnv",
    "TrafficEvent",
    "TrafficSpec",
    "TreeSpec",
    "UpdateMix",
    "UpdateStream",
    "build_traffic_env",
    "poisson_schedule",
    "burst_of_tuples",
    "count_objects",
    "insert_tuple",
    "layered_dag",
    "layered_tree",
    "person_db",
    "random_labelled_tree",
    "register_person_database",
    "relations_db",
    "web_db",
]
