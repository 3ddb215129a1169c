"""Community detection on weighted sparse graphs via balanced-TV modularity
optimization with a pseudospectral diffusion-threshold (MBO) solver."""

from .build import knn_graph, planted_partition, two_moons
from .eigen import (
    DiffusionOperator,
    EigenBasis,
    dense_spectrum,
    smallest_eigenpairs,
)
from .graph import (
    SparseGraph,
    Supervision,
    balanced_cut,
    balanced_cut_centered,
    balanced_tv,
    cut,
    gl_energy,
    graph_tv,
    labels_to_matrix,
    modularity,
    ssl_energy,
    volume,
)
from .io import (
    load_edge_list,
    load_features,
    load_label_pairs,
    load_labels,
    save_edge_list,
    save_features,
    save_labels,
)
from .mbo import (
    MboResult,
    diffuse,
    fidelity_step,
    mbo_run,
    random_start,
    select_timestep,
    threshold,
    timestep_bounds,
)
from .metrics import classification_rate, consistency, purity
from .partition import kmeans_init, recursive_partition, sweep_nhat

__version__ = "0.1.0"
