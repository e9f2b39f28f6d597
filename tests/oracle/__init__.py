"""Reference oracles the product optimizer is tested against.

* **Serial** — the product sweep with pruning off (:func:`unpruned`):
  every bundle is re-evaluated on every sweep and every pair searched,
  the paper's plain loop "through the list of active applications".
* **From scratch** — :class:`~tests.oracle.naive.NaiveGreedyOptimizer`,
  injected with ``ModelDrivenPolicy(optimizer=NaiveGreedyOptimizer())``:
  every candidate is scored on a copied view with every application
  predicted again.
"""


def unpruned(controller):
    """Turn ``controller`` into the serial oracle and return it.

    Its partition index never lets a sweep or a pairwise pass skip
    anything — the path production takes anyway for a non-decomposable
    objective or an opaque model.
    """
    controller.partition_index.prunable = lambda objective: False
    return controller
