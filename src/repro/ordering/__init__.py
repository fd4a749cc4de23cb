"""The eleven vertex reordering schemes of the paper (Section III).

Importing this package registers every scheme in the registry:

=================  ==============================  ====================
registry key       class                           category
=================  ==============================  ====================
natural            NaturalOrder                    baseline
random             RandomOrder                     baseline
degree_sort        DegreeSort                      degree/hub
hub_sort           HubSort                         degree/hub
hub_cluster        HubCluster                      degree/hub
slashburn          SlashBurnOrder                  degree/hub
gorder             GorderOrder                     window
metis              MetisOrder (32 parts)           partitioning
grappolo           GrappoloOrder                   partitioning
grappolo_rcm       GrappoloRcmOrder                partitioning
rabbit             RabbitOrder                     partitioning
rcm                RCMOrder                        fill-reducing
nested_dissection  NestedDissectionOrder           fill-reducing
=================  ==============================  ====================

(The registry holds 13 keys because the paper's 11 "schemes" count
natural/random as two of them while we also expose hub_sort and
hub_cluster separately; ``PAPER_SCHEMES`` lists the exact 11-set used in
the qualitative study.)
"""

from .base import (
    OperationCounter,
    Ordering,
    OrderingScheme,
    available_schemes,
    get_scheme,
    iter_schemes,
    register_scheme,
)
from .community import GrappoloOrder, GrappoloRcmOrder, community_coarse_graph
from .hybrid import HybridOrder
from .minla import MinLAAnneal, swap_delta, total_gap
from .multilevel_minla import MultilevelMinLA, adjacent_swap_refine
from .degree import (
    DegreeBasedGrouping,
    DegreeSort,
    HubCluster,
    HubSort,
    average_degree_cutoff,
)
from .gorder import GorderOrder, window_gscore
from .natural import NaturalOrder, RandomOrder
from .nested_dissection import NestedDissectionOrder
from .partition import DEFAULT_NUM_PARTS, MetisOrder
from .rabbit import RabbitOrder
from .rcm import RCMOrder, cuthill_mckee_sequence, pseudo_peripheral_vertex
from .slashburn import SlashBurnOrder
from .store import OrderingStore
from .traversal import BFSOrder, ChildrenDFSOrder, DFSOrder

__all__ = [
    "Ordering",
    "OrderingScheme",
    "OperationCounter",
    "register_scheme",
    "get_scheme",
    "available_schemes",
    "iter_schemes",
    "NaturalOrder",
    "RandomOrder",
    "DegreeSort",
    "HubSort",
    "HubCluster",
    "DegreeBasedGrouping",
    "average_degree_cutoff",
    "SlashBurnOrder",
    "GorderOrder",
    "window_gscore",
    "RCMOrder",
    "cuthill_mckee_sequence",
    "pseudo_peripheral_vertex",
    "NestedDissectionOrder",
    "MetisOrder",
    "DEFAULT_NUM_PARTS",
    "GrappoloOrder",
    "GrappoloRcmOrder",
    "community_coarse_graph",
    "RabbitOrder",
    "BFSOrder",
    "DFSOrder",
    "ChildrenDFSOrder",
    "MinLAAnneal",
    "MultilevelMinLA",
    "adjacent_swap_refine",
    "total_gap",
    "swap_delta",
    "HybridOrder",
    "OrderingStore",
    "PAPER_SCHEMES",
    "EXTENSION_SCHEMES",
]

#: the 11 schemes of the paper's qualitative study (Section V):
#: 9 named schemes + the natural and random controls.
PAPER_SCHEMES = (
    "natural",
    "random",
    "degree_sort",
    "slashburn",
    "gorder",
    "rcm",
    "nested_dissection",
    "metis",
    "grappolo",
    "grappolo_rcm",
    "rabbit",
)

register_scheme("natural", NaturalOrder)
register_scheme("random", RandomOrder)
register_scheme("degree_sort", DegreeSort)
register_scheme("hub_sort", HubSort)
register_scheme("hub_cluster", HubCluster)
register_scheme("dbg", DegreeBasedGrouping)
register_scheme("slashburn", SlashBurnOrder)
register_scheme("gorder", GorderOrder)
register_scheme("rcm", RCMOrder)
register_scheme("nested_dissection", NestedDissectionOrder)
register_scheme("metis", MetisOrder)
register_scheme("grappolo", GrappoloOrder)
register_scheme("grappolo_rcm", GrappoloRcmOrder)
register_scheme("rabbit", RabbitOrder)
register_scheme("bfs", BFSOrder)
register_scheme("dfs", DFSOrder)
register_scheme("cdfs", ChildrenDFSOrder)
register_scheme("minla_anneal", MinLAAnneal)
register_scheme("minla_multilevel", MultilevelMinLA)
register_scheme("hybrid", HybridOrder)

#: schemes beyond the paper's study: traversal orders (footnote 1 of
#: Section III-E), the MinLA annealer (Section III-A's gap-based class),
#: and the hybrid multiscale engine (Section VII future work).
EXTENSION_SCHEMES = (
    "bfs", "dfs", "cdfs", "dbg", "minla_anneal", "minla_multilevel",
    "hybrid",
)
