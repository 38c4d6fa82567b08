"""Model-based offline safe RL on desk-scale environments.

Library layout:

- ``cmdp``, ``envs``, ``tabular``, ``oracle``, ``collect``: hard-constraint
  CMDPs, the built-in gridworld and double integrator, and brute-force
  feasibility ground truth.
- ``approx``: minimal MLP stack with hand-rolled reverse-mode gradients.
- ``dynamics``: ensemble Gaussian dynamics models with elite selection.
- ``reachability``, ``critics``: feasible Bellman operators, exact tabular
  value iteration, and parametric reachability critics.
- ``costgen``, ``safexpr``: conservative cost-function generation with
  validation and feedback.
- ``rollout``, ``policy``: branched model rollouts, relabeling, and
  feasibility-gated policy extraction.
- ``config``, ``pipeline``, ``cli``: staged, resumable experiment runner.
"""

__version__ = "0.1.0"

# Environment variables that set the BLAS thread count. The CLI pins each
# to one thread, and ``seeding.ordered_map`` runs threads only when all
# three read "1". Kept here, where reading it imports no numpy.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
